package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinMargin is how early the generator wakes before a due time and then
// yields in a loop until it arrives: timer sleeps on a loaded VM overshoot
// by far more than a request's service time.
const spinMargin = time.Millisecond

// loadResult holds the raw samples of one open-loop phase.
type loadResult struct {
	latency     []float64 // ms from each request's due time to its answer
	lag         []float64 // ms from each request's due time to its dispatch
	ok          []bool    // the response passed its correctness check
	inflightMax int
	wall        time.Duration // first due time to last completion
}

func (r loadResult) okCount() int {
	n := 0
	for _, ok := range r.ok {
		if ok {
			n++
		}
	}
	return n
}

// withinShare is the share of sent requests answered correctly within
// limit, given each request's latency in ms; a failed request counts as a
// miss.
func (r loadResult) withinShare(latency []float64, limit time.Duration) float64 {
	n := 0
	for i, ok := range r.ok {
		if ok && latency[i] <= ms(limit) {
			n++
		}
	}
	return ratio(float64(n), float64(len(r.ok)))
}

// report writes the median latency, the tail, the generator's validity
// metrics and the sample count.
func (r loadResult) report(rep *report) {
	rep.set("latency_p50_ms", percentile(r.latency, 0.50))
	rep.set("loadgen.latency_p95_ms", percentile(r.latency, 0.95))
	rep.set("loadgen.achieved_rps", ratio(float64(r.okCount()), r.wall.Seconds()))
	rep.set("loadgen.lag_p50_ms", percentile(r.lag, 0.50))
	rep.set("loadgen.lag_p99_ms", percentile(r.lag, 0.99))
	rep.set("loadgen.inflight_max", float64(r.inflightMax))
	rep.set("loadgen.samples", float64(len(r.latency)))
}

// openLoop sends n requests on a fixed arrival schedule, one every
// interval, over at most conns concurrent workers. A request whose workers
// are all busy waits, and that wait counts in its latency, which runs from
// the due time, not the send time, to the answer time do reports. do
// performs request i and reports whether its response was correct.
func openLoop(n int, interval time.Duration, conns int, do func(i int) (ok bool, answered time.Time)) loadResult {
	res := loadResult{
		latency: make([]float64, n),
		lag:     make([]float64, n),
		ok:      make([]bool, n),
	}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var inflight, maxInflight atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res.lag[j.i] = ms(time.Since(j.due))
				cur := inflight.Add(1)
				for {
					old := maxInflight.Load()
					if cur <= old || maxInflight.CompareAndSwap(old, cur) {
						break
					}
				}
				ok, answered := do(j.i)
				inflight.Add(-1)
				res.ok[j.i] = ok
				res.latency[j.i] = ms(answered.Sub(j.due))
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		jobs <- job{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	res.wall = time.Since(start)
	res.inflightMax = int(maxInflight.Load())
	return res
}

// waitUntil sleeps until spinMargin before due, then yields until due.
func waitUntil(due time.Time) {
	if d := time.Until(due) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}
