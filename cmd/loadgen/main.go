// Command loadgen is a closed-loop load generator for the QUEST live
// recommendation path (GET /api/recommend). It drives a target request
// rate through a bounded worker pool, records latencies into the obs
// package's fixed histogram buckets, and reports the run in `go test
// -bench` text format so cmd/benchjson can turn it into a committed
// BENCH file:
//
//	loadgen -shards 4 -slow-shard 2 -rps 200 -duration 10s | benchjson -o BENCH_pr8.json
//
// By default loadgen is self-contained: it synthesizes a deterministic
// knowledge base, partitions it across -shards in-process shards
// behind the hedging/breaker router (exactly questd's serving tier), and
// serves it from an in-process QUEST server — so a run measures the
// serving architecture, not a network. -slow-shard injects a
// deterministic slow-primary fault (internal/faults) into one shard to
// demonstrate the hedge keeping tail latency inside the SLO. With
// -replicas N the knowledge base is additionally persisted to a
// throwaway reldb primary and N WAL-shipped read replicas
// (internal/repl) tail it as hedge/failover targets — a slow-primary run
// then shows hedged reads rescued by a replica (the replica-served
// column). Point it at a running questd instead with -url.
//
// With -slo-p99 the run fails (exit 1) when the measured p99 exceeds the
// budget, making the SLO check scriptable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/obs/reqlog"
	"repro/internal/quest"
	"repro/internal/reldb"
	"repro/internal/repl"
	"repro/internal/shard"

	"repro/internal/bundle"
)

type options struct {
	url          string
	rps          float64
	duration     time.Duration
	workers      int
	shards       int
	slowShard    int
	slowDelay    time.Duration
	hedgeAfter   time.Duration
	shardTimeout time.Duration
	replicas     int
	maxApplyLag  time.Duration
	parts        int
	seed         int64
	sloP99       time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.url, "url", "", "base URL of a running questd (empty = self-contained in-process server)")
	flag.Float64Var(&o.rps, "rps", 200, "target request rate")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "run length")
	flag.IntVar(&o.workers, "workers", 32, "closed-loop worker pool size")
	flag.IntVar(&o.shards, "shards", 4, "shard count (self-contained mode)")
	flag.IntVar(&o.slowShard, "slow-shard", -1, "shard whose primary attempts are artificially slow (-1 = none; self-contained mode)")
	flag.DurationVar(&o.slowDelay, "slow-delay", 50*time.Millisecond, "injected primary-attempt delay on -slow-shard")
	flag.DurationVar(&o.hedgeAfter, "hedge-after", 5*time.Millisecond, "router hedge delay (self-contained mode)")
	flag.DurationVar(&o.shardTimeout, "shard-timeout", shard.DefaultShardTimeout, "router per-shard deadline (self-contained mode)")
	flag.IntVar(&o.replicas, "replicas", 0, "WAL-shipped read replicas tailing a throwaway persisted primary as hedge/failover targets (0 disables; self-contained mode)")
	flag.DurationVar(&o.maxApplyLag, "max-apply-lag", shard.DefaultMaxApplyLag, "replica staleness bound (self-contained mode)")
	flag.IntVar(&o.parts, "parts", 40, "distinct part IDs in the synthetic knowledge base")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.DurationVar(&o.sloP99, "slo-p99", 0, "fail the run when measured p99 exceeds this budget (0 disables)")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// buildKB synthesizes the deterministic workload knowledge base.
func buildKB(seed int64, parts int) *kb.Memory {
	rng := rand.New(rand.NewSource(seed))
	m := kb.NewMemory()
	for i := 0; i < parts*30; i++ {
		part := fmt.Sprintf("P%03d", rng.Intn(parts))
		code := fmt.Sprintf("E%03d", rng.Intn(25))
		n := 3 + rng.Intn(6)
		set := map[string]bool{}
		for len(set) < n {
			set[fmt.Sprintf("f%02d", rng.Intn(60))] = true
		}
		feats := make([]string, 0, len(set))
		for f := range set {
			feats = append(feats, f)
		}
		sort.Strings(feats)
		m.AddBundle(part, code, feats)
	}
	return m
}

// selfContained stands up the in-process target: synthetic KB, sharded
// router (with the optional slow-shard fault), QUEST server. The wide-event
// request log rides along so the run can report the per-stage breakdown.
func selfContained(o options, rl *reqlog.Log) (baseURL string, stop func(), err error) {
	db, err := reldb.Open("")
	if err != nil {
		return "", nil, err
	}
	if err := bundle.CreateTables(db); err != nil {
		db.Close()
		return "", nil, err
	}
	src := buildKB(o.seed, o.parts)
	// -replicas: persist the workload KB into a throwaway durable primary
	// and stand up WAL-shipped read replicas tailing it; the router hedges
	// to them when a primary attempt is slow.
	var targets []shard.ReplicaTarget
	var reps []*repl.Replica
	var repClose func()
	if o.replicas > 0 {
		dir, err := os.MkdirTemp("", "loadgen-kb-*")
		if err != nil {
			db.Close()
			return "", nil, err
		}
		pdb, err := reldb.Open(dir)
		if err == nil {
			err = kb.CreateTables(pdb)
		}
		if err == nil {
			err = kb.Persist(pdb, src)
		}
		if err != nil {
			db.Close()
			os.RemoveAll(dir)
			return "", nil, err
		}
		primary, err := repl.NewPrimary(pdb)
		if err != nil {
			pdb.Close()
			db.Close()
			os.RemoveAll(dir)
			return "", nil, err
		}
		for i := 0; i < o.replicas; i++ {
			rep, err := repl.New(repl.Config{ID: fmt.Sprintf("r%d", i), Link: primary})
			if err != nil {
				db.Close()
				os.RemoveAll(dir)
				return "", nil, err
			}
			rep.Start()
			reps = append(reps, rep)
			targets = append(targets, rep)
		}
		deadline := time.Now().Add(10 * time.Second)
		for _, rep := range reps {
			for !(rep.Ready() && rep.ApplyLag() < o.maxApplyLag) {
				if time.Now().After(deadline) {
					db.Close()
					os.RemoveAll(dir)
					return "", nil, fmt.Errorf("replica %s never caught up", rep.ID())
				}
				time.Sleep(time.Millisecond)
			}
		}
		repClose = func() {
			for _, rep := range reps {
				rep.Close()
			}
			pdb.Close()
			os.RemoveAll(dir)
		}
	}
	var hook shard.FaultHook
	if o.slowShard >= 0 {
		// FirstAttempts=1 slows only each sub-query's primary attempt: the
		// hedged second attempt runs unhindered, which is the tail-rescue
		// this tool exists to demonstrate.
		hook = faults.ShardHook(map[int]faults.ShardFault{
			o.slowShard: {Mode: faults.ShardSlow, Delay: o.slowDelay, FirstAttempts: 1},
		})
	}
	router, err := shard.New(shard.Config{
		Stores:       shard.PartitionStores(src, o.shards),
		ShardTimeout: o.shardTimeout,
		HedgeAfter:   o.hedgeAfter,
		Hook:         hook,
		Replicas:     targets,
		MaxApplyLag:  o.maxApplyLag,
	})
	if err != nil {
		if repClose != nil {
			repClose()
		}
		db.Close()
		return "", nil, err
	}
	srv, err := quest.NewServer(quest.Config{DB: db, Shards: router, Requests: rl})
	if err != nil {
		router.Close()
		if repClose != nil {
			repClose()
		}
		db.Close()
		return "", nil, err
	}
	ts := httptest.NewServer(srv)
	return ts.URL, func() {
		ts.Close()
		router.Close()
		if repClose != nil {
			repClose()
		}
		db.Close()
	}, nil
}

// decodeJSON decodes a response body, tolerating trailing data.
func decodeJSON(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// result is one request's outcome.
type result struct {
	latency  time.Duration
	status   int
	degraded bool
	hedged   bool
	replica  bool
	stale    bool
	err      bool
}

func run(o options, out io.Writer) error {
	base := o.url
	var reqLog *reqlog.Log
	if base == "" {
		reqLog = reqlog.New(reqlog.Config{})
		var stop func()
		var err error
		base, stop, err = selfContained(o, reqLog)
		if err != nil {
			return err
		}
		defer stop()
	}
	base = strings.TrimRight(base, "/")

	// Deterministic query mix: known parts plus ~10% unknown (scatter).
	rng := rand.New(rand.NewSource(o.seed + 1))
	type query struct{ part, features string }
	queries := make([]query, 256)
	for i := range queries {
		part := fmt.Sprintf("P%03d", rng.Intn(o.parts))
		if rng.Intn(10) == 0 {
			part = fmt.Sprintf("PX%02d", rng.Intn(50))
		}
		n := 2 + rng.Intn(4)
		feats := make([]string, 0, n)
		seen := map[string]bool{}
		for len(feats) < n {
			f := fmt.Sprintf("f%02d", rng.Intn(60))
			if !seen[f] {
				seen[f] = true
				feats = append(feats, f)
			}
		}
		queries[i] = query{part, strings.Join(feats, ",")}
	}

	client := &http.Client{Timeout: 5 * time.Second}
	jobs := make(chan query)
	results := make(chan result, 1024)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range jobs {
				u := base + "/api/recommend?part=" + url.QueryEscape(q.part) + "&features=" + url.QueryEscape(q.features)
				start := time.Now()
				var res result
				resp, err := client.Get(u)
				res.latency = time.Since(start)
				if err != nil {
					res.err = true
				} else {
					res.status = resp.StatusCode
					var env struct {
						Degraded bool `json:"degraded"`
						Hedged   bool `json:"hedged"`
						Replica  bool `json:"replica"`
						Stale    bool `json:"stale"`
					}
					dec := decodeJSON(resp.Body, &env)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || dec != nil {
						res.err = true
					}
					res.degraded, res.hedged = env.Degraded, env.Hedged
					res.replica, res.stale = env.Replica, env.Stale
				}
				results <- res
			}
		}()
	}

	// Closed-loop dispatch at the target rate: arrivals are scheduled on
	// the ideal clock, and when the pool is saturated the dispatcher
	// blocks (coordinated omission is visible as a lower achieved rate,
	// not silently dropped arrivals).
	interval := time.Duration(float64(time.Second) / o.rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	//lint:ignore qatklint/goroleak the dispatcher self-terminates when the run duration elapses and hands the workers their exit by closing jobs; the workers' WaitGroup is the join
	go func() {
		defer close(jobs)
		start := time.Now()
		for i := 0; ; i++ {
			next := start.Add(time.Duration(i) * interval)
			if next.Sub(start) >= o.duration {
				return
			}
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			jobs <- queries[i%len(queries)]
		}
	}()

	// Collect into the obs fixed-bucket histogram shape.
	bounds := obs.DefBuckets
	counts := make([]uint64, len(bounds)+1) // +Inf overflow bucket
	var (
		total, errors, degraded, hedged uint64
		replicaServed, stale            uint64
		sum                             time.Duration
		maxLat                          time.Duration
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range results {
			total++
			if res.err {
				errors++
			}
			if res.degraded {
				degraded++
			}
			if res.hedged {
				hedged++
			}
			if res.replica {
				replicaServed++
			}
			if res.stale {
				stale++
			}
			sum += res.latency
			if res.latency > maxLat {
				maxLat = res.latency
			}
			sec := res.latency.Seconds()
			i := sort.SearchFloat64s(bounds, sec)
			counts[i]++
		}
	}()

	wallStart := time.Now()
	wg.Wait()
	close(results)
	<-done
	wall := time.Since(wallStart)
	if total == 0 {
		return fmt.Errorf("no requests completed")
	}

	quantile := func(q float64) float64 {
		rank := uint64(q * float64(total))
		cum := uint64(0)
		for i, c := range counts {
			cum += c
			if cum > rank {
				if i < len(bounds) {
					return bounds[i]
				}
				return maxLat.Seconds() // beyond the last bound
			}
		}
		return maxLat.Seconds()
	}
	p50, p95, p99 := quantile(0.50), quantile(0.95), quantile(0.99)
	achieved := float64(total) / wall.Seconds()
	avgNs := float64(sum.Nanoseconds()) / float64(total)

	// The wide-event stage totals (self-contained mode only: a remote
	// questd keeps its request log on its own debug mux) become extra
	// value-unit pairs, average milliseconds per timed request.
	stageCols := ""
	for _, st := range reqLog.StageTotals() {
		avgMs := st.Total.Seconds() * 1000 / float64(st.Count)
		stageCols += fmt.Sprintf("\t%.4f stage-%s-ms", avgMs, st.Name)
	}

	// `go test -bench` text format, one synthetic result line, so the
	// stream pipes straight into cmd/benchjson.
	fmt.Fprintln(out, "pkg: repro/cmd/loadgen")
	fmt.Fprintf(out,
		"BenchmarkQuestRecommendLoad \t%8d\t%12.0f ns/op\t%8.1f rps\t%.4f p50-s\t%.4f p95-s\t%.4f p99-s\t%d errors\t%d degraded\t%d hedged\t%d replica-served\t%d stale%s\n",
		total, avgNs, achieved, p50, p95, p99, errors, degraded, hedged, replicaServed, stale, stageCols)

	if errors > 0 {
		return fmt.Errorf("%d/%d requests failed", errors, total)
	}
	if o.sloP99 > 0 && p99 > o.sloP99.Seconds() {
		return fmt.Errorf("p99 %.4fs exceeds SLO budget %v", p99, o.sloP99)
	}
	return nil
}
