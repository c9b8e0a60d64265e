package quest

import (
	"bytes"
	"fmt"
	"html/template"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bundle"
	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/reqlog"
	"repro/internal/reldb"
	"repro/internal/shard"
)

// SuggestionLimit is how many recommendations the assignment screen shows
// first ("the user is first presented with a selection of the 10 most
// likely error codes in descending order of likelihood", §4.5.4).
const SuggestionLimit = 10

// Server is the QUEST web application over a QATK database.
type Server struct {
	db             *reldb.DB
	internal       *compare.Distribution
	public         *compare.Distribution
	comparisonNote string
	shards         *shard.Router
	mux            *http.ServeMux
	handler        http.Handler
	build          obs.BuildIdentity
}

// Config wires a Server.
type Config struct {
	DB *reldb.DB
	// Internal and Public feed the §5.4 comparison screen; either may be
	// nil, disabling it.
	Internal *compare.Distribution
	Public   *compare.Distribution
	// ComparisonNote records why the comparison screen is degraded (shown
	// by /readyz); ignored when both distributions are set.
	ComparisonNote string
	// RequestTimeout bounds each request's handler time (0 = unbounded).
	// Health probes are exempt so a stalled application handler cannot
	// mask the process's liveness.
	RequestTimeout time.Duration
	// Logger receives panic, timeout and lifecycle events (nil = a
	// structured logger on stderr at info level).
	Logger *obs.Logger
	// Metrics receives serving metrics and is exposed at /metrics on the
	// probe mux. Nil disables both.
	Metrics *obs.Registry
	// Tracer records one span per request. Nil disables request tracing.
	Tracer *obs.Tracer
	// Flight is the black-box flight recorder: its SLO watchdog windows
	// the request-duration histogram in Metrics (no registry, no SLO
	// watchdog) and recovered panics trigger diagnostic bundles. Nil
	// disables flight recording.
	Flight *flight.Recorder
	// Shards is the live recommendation fan-out tier. Nil disables
	// GET /api/recommend and the per-shard readiness section; the
	// batch-persisted suggestion screens keep working either way.
	Shards *shard.Router
	// Requests is the tail-sampled wide-event log: one event per request,
	// assembled along the serving path. Nil disables request logging.
	Requests *reqlog.Log
	// Exemplars attaches OpenMetrics exemplars (trace IDs of retained wide
	// events) to the request latency histogram. Requires Requests.
	Exemplars bool
}

// NewServer builds the application. The database must already contain the
// bundle, recommendation, catalog and user tables.
func NewServer(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("quest: nil database")
	}
	s := &Server{
		db: cfg.DB, internal: cfg.Internal, public: cfg.Public,
		comparisonNote: cfg.ComparisonNote, shards: cfg.Shards,
		mux: http.NewServeMux(),
	}
	s.mux.HandleFunc("/", s.handleBundles)
	s.mux.HandleFunc("/bundle/", s.handleBundle)
	s.mux.HandleFunc("/login", s.handleLogin)
	s.mux.HandleFunc("/logout", s.handleLogout)
	s.mux.HandleFunc("/codes/new", s.handleNewCode)
	s.mux.HandleFunc("/users", s.handleUsers)
	s.mux.HandleFunc("/users/delete", s.handleDeleteUser)
	s.mux.HandleFunc("/compare", s.handleCompare)
	s.mux.HandleFunc("/audit", s.handleAudit)
	s.registerAPI()

	logger := cfg.Logger
	if logger == nil {
		logger = obs.NewLogger(os.Stderr, obs.LevelInfo)
	}
	// Resolving the defensive counters up front also pre-registers their
	// families, so a scrape sees them at zero before the first incident.
	// RegisterBuildInfo records the binary identity served by /healthz and
	// the build_info gauge.
	s.build = obs.RegisterBuildInfo(cfg.Metrics)
	panics := cfg.Metrics.Counter(MetricPanicsTotal)
	timeouts := cfg.Metrics.Counter(MetricTimeoutsTotal)

	// Health probes and /metrics bypass the request timeout; everything
	// else runs under timeout + panic recovery. Instrument sits outermost
	// so recovered panics are still counted with their 500.
	probes := http.NewServeMux()
	probes.HandleFunc("/healthz", s.handleHealthz)
	probes.HandleFunc("/readyz", s.handleReadyz)
	if cfg.Metrics != nil {
		probes.Handle("/metrics", cfg.Metrics.Handler())
	}
	probes.Handle("/", WithTimeout(cfg.RequestTimeout, timeouts, logger, limitBody(s.mux)))
	s.handler = Instrument(cfg.Metrics, cfg.Tracer, cfg.Requests, cfg.Exemplars,
		Recover(logger, panics, cfg.Flight, probes))
	cfg.Flight.WatchLatency(cfg.Metrics.Histogram(MetricHTTPRequestDurationSeconds, obs.DefBuckets))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// --- session -------------------------------------------------------------

const sessionCookie = "quest_user"

type viewUser struct {
	Name string
	Role Role
}

// IsAdmin reports extended rights.
func (u *viewUser) IsAdmin() bool { return u != nil && u.Role == RoleAdmin }

// currentUser resolves the logged-in user from the session cookie.
func (s *Server) currentUser(r *http.Request) *viewUser {
	c, err := r.Cookie(sessionCookie)
	if err != nil || c.Value == "" {
		return nil
	}
	u, ok, err := GetUser(s.db, c.Value)
	if err != nil || !ok {
		return nil
	}
	return &viewUser{Name: u.Name, Role: u.Role}
}

// --- rendering -----------------------------------------------------------

type page struct {
	Title string
	User  *viewUser
	Error string
	Body  template.HTML
}

func (s *Server) render(w http.ResponseWriter, r *http.Request, title, bodyName string, data any, errMsg string) {
	var body bytes.Buffer
	if err := bodyTmpls.ExecuteTemplate(&body, bodyName, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	p := page{Title: title, User: s.currentUser(r), Error: errMsg, Body: template.HTML(body.String())}
	if err := pageTmpl.Execute(w, p); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// --- handlers ------------------------------------------------------------

type bundleRow struct {
	RefNo, PartID, ArticleCode, ErrorCode string
}

// listPageSize is how many bundles one list page shows.
const listPageSize = 50

func (s *Server) handleBundles(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	q := r.URL.Query()
	pendingOnly := q.Get("pending") == "1"
	partFilter := q.Get("part")
	page, _ := strconv.Atoi(q.Get("page"))
	if page < 1 {
		page = 1
	}
	query := reldb.Query{Table: bundle.TableBundles, OrderBy: "ref_no"}
	if partFilter != "" {
		query.Where = []reldb.Cond{reldb.Eq("part_id", partFilter)}
	}
	res, err := s.db.Select(query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var rows []bundleRow
	for _, row := range res.Rows {
		br := bundleRow{RefNo: row[1].(string), ArticleCode: row[2].(string), PartID: row[3].(string)}
		if row[4] != nil {
			br.ErrorCode = row[4].(string)
		}
		if pendingOnly && br.ErrorCode != "" {
			continue
		}
		rows = append(rows, br)
	}
	totalPages := (len(rows) + listPageSize - 1) / listPageSize
	if totalPages == 0 {
		totalPages = 1
	}
	if page > totalPages {
		page = totalPages
	}
	lo := (page - 1) * listPageSize
	hi := lo + listPageSize
	if hi > len(rows) {
		hi = len(rows)
	}
	baseQuery := ""
	if pendingOnly {
		baseQuery += "&pending=1"
	}
	if partFilter != "" {
		baseQuery += "&part=" + template.URLQueryEscaper(partFilter)
	}
	s.render(w, r, "Bundles", "bundles", map[string]any{
		"Bundles": rows[lo:hi], "PendingOnly": pendingOnly, "Part": partFilter,
		"Page": page, "TotalPages": totalPages, "Matches": len(rows),
		"PrevPage": page - 1, "NextPage": page + 1, "BaseQuery": baseQuery,
	}, "")
}

func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/bundle/")
	parts := strings.Split(rest, "/")
	ref := parts[0]
	if ref == "" {
		http.NotFound(w, r)
		return
	}
	switch {
	case len(parts) == 1 && r.Method == http.MethodGet:
		s.showBundle(w, r, ref, "")
	case len(parts) == 2 && parts[1] == "assign" && r.Method == http.MethodPost:
		s.assignCode(w, r, ref)
	case len(parts) == 2 && parts[1] == "codes" && r.Method == http.MethodGet:
		s.showAllCodes(w, r, ref)
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) showBundle(w http.ResponseWriter, r *http.Request, ref, errMsg string) {
	b, err := bundle.Load(s.db, ref)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	sugg, err := core.LoadRecommendations(s.db, ref, SuggestionLimit)
	if err != nil {
		sugg = nil
	}
	s.render(w, r, "Bundle "+ref, "bundle", map[string]any{
		"Bundle": b, "Suggestions": sugg,
	}, errMsg)
}

func (s *Server) assignCode(w http.ResponseWriter, r *http.Request, ref string) {
	u := s.currentUser(r)
	if u == nil {
		http.Redirect(w, r, "/login", http.StatusSeeOther)
		return
	}
	code := r.FormValue("code")
	if code == "" {
		s.showBundle(w, r, ref, "no error code given")
		return
	}
	if err := bundle.SetErrorCode(s.db, ref, code); err != nil {
		s.showBundle(w, r, ref, err.Error())
		return
	}
	s.audit(ref, code, u.Name)
	http.Redirect(w, r, "/bundle/"+ref, http.StatusSeeOther)
}

// audit records an assignment in the field-study trail (best effort: a
// database without the audit table simply skips it).
func (s *Server) audit(ref, code, user string) {
	entry := AuditEntry{RefNo: ref, Code: code, User: user, Source: "catalog", At: time.Now()}
	if sugg, err := core.LoadRecommendations(s.db, ref, SuggestionLimit); err == nil {
		for i, sc := range sugg {
			if sc.Code == code {
				entry.Source = "suggestion"
				entry.SuggRank = i + 1
				break
			}
		}
	}
	_ = RecordAssignment(s.db, entry)
}

func (s *Server) showAllCodes(w http.ResponseWriter, r *http.Request, ref string) {
	b, err := bundle.Load(s.db, ref)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	codes, err := CodesForPart(s.db, b.PartID)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.render(w, r, "Codes for "+b.PartID, "codes", map[string]any{
		"RefNo": ref, "PartID": b.PartID, "Codes": codes,
	}, "")
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		name := r.FormValue("name")
		if _, ok, _ := GetUser(s.db, name); !ok {
			s.render(w, r, "Login", "login", nil, fmt.Sprintf("unknown user %q", name))
			return
		}
		http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: name, Path: "/", HttpOnly: true})
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return
	}
	s.render(w, r, "Login", "login", nil, "")
}

func (s *Server) handleLogout(w http.ResponseWriter, r *http.Request) {
	http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: "", Path: "/", MaxAge: -1})
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

// requireAdmin enforces extended rights, rendering an error page otherwise.
func (s *Server) requireAdmin(w http.ResponseWriter, r *http.Request) *viewUser {
	u := s.currentUser(r)
	if u == nil {
		http.Redirect(w, r, "/login", http.StatusSeeOther)
		return nil
	}
	if !u.IsAdmin() {
		http.Error(w, "extended rights required", http.StatusForbidden)
		return nil
	}
	return u
}

func (s *Server) handleNewCode(w http.ResponseWriter, r *http.Request) {
	if s.requireAdmin(w, r) == nil {
		return
	}
	if r.Method == http.MethodPost {
		e := CatalogEntry{
			Code:        r.FormValue("code"),
			PartID:      r.FormValue("part_id"),
			Description: r.FormValue("description"),
		}
		if err := AddCode(s.db, e); err != nil {
			s.render(w, r, "New error code", "newcode", nil, err.Error())
			return
		}
		http.Redirect(w, r, "/codes/new", http.StatusSeeOther)
		return
	}
	s.render(w, r, "New error code", "newcode", nil, "")
}

func (s *Server) handleUsers(w http.ResponseWriter, r *http.Request) {
	if s.requireAdmin(w, r) == nil {
		return
	}
	var errMsg string
	if r.Method == http.MethodPost {
		if _, err := AddUser(s.db, r.FormValue("name"), Role(r.FormValue("role"))); err != nil {
			errMsg = err.Error()
		}
	}
	users, err := ListUsers(s.db)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.render(w, r, "Users", "users", map[string]any{"Users": users}, errMsg)
}

func (s *Server) handleDeleteUser(w http.ResponseWriter, r *http.Request) {
	u := s.requireAdmin(w, r)
	if u == nil {
		return
	}
	name := r.FormValue("name")
	if name == u.Name {
		http.Error(w, "cannot delete yourself", http.StatusBadRequest)
		return
	}
	if err := DeleteUser(s.db, name); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	http.Redirect(w, r, "/users", http.StatusSeeOther)
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if s.requireAdmin(w, r) == nil {
		return
	}
	entries, err := RecentAssignments(s.db, 100)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fromSugg, total, meanRank, err := SuggestionHitRate(s.db)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.render(w, r, "Audit", "audit", map[string]any{
		"Entries": entries, "FromSuggestions": fromSugg, "Total": total,
		"MeanRank": fmt.Sprintf("%.2f", meanRank),
	}, "")
}

type compareRow struct {
	LCode, LShare, RCode, RShare string
}

// pieGradient builds a CSS conic-gradient rendering the top shares as a
// pie chart (the Fig. 14 visualization, without any client-side code).
func pieGradient(shares []compare.Share) template.CSS {
	colors := []string{"#3b6ea5", "#74a57f", "#d9a05b", "#b0b7bf"}
	var b strings.Builder
	b.WriteString("conic-gradient(")
	angle := 0.0
	for i, s := range shares {
		next := angle + 360*s.Fraction
		if i == len(shares)-1 {
			next = 360
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.1fdeg %.1fdeg", colors[i%len(colors)], angle, next)
		angle = next
	}
	b.WriteString(")")
	return template.CSS(b.String())
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	if s.internal == nil || s.public == nil {
		http.Error(w, "comparison data not loaded", http.StatusNotFound)
		return
	}
	// Side-by-side pie-chart data: the n most frequent codes per source
	// (Fig. 14 shows n = 3 plus "other").
	ti, tp := s.internal.Top(3), s.public.Top(3)
	rows := make([]compareRow, 0, 4)
	n := len(ti)
	if len(tp) > n {
		n = len(tp)
	}
	for i := 0; i < n; i++ {
		var row compareRow
		if i < len(ti) {
			row.LCode = ti[i].Code
			row.LShare = fmt.Sprintf("%.1f%%", 100*ti[i].Fraction)
		}
		if i < len(tp) {
			row.RCode = tp[i].Code
			row.RShare = fmt.Sprintf("%.1f%%", 100*tp[i].Fraction)
		}
		rows = append(rows, row)
	}
	s.render(w, r, "Data comparison", "compare", map[string]any{
		"Internal": s.internal, "Public": s.public, "Rows": rows,
		"LeftPie": pieGradient(ti), "RightPie": pieGradient(tp),
	}, "")
}
