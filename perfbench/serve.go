package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"preexec"
	"preexec/serve"
	"preexec/synth"
)

// Request kinds of the serve_mixed traffic mix.
const (
	kindHot        = "hot"         // builtin at the hot configuration: cache reads
	kindNovel      = "novel"       // builtin at a machine config no request used before
	kindUpload     = "upload"      // POST /v1/workloads with a seeded synth.Spec
	kindUploadEval = "upload_eval" // evaluate of the workload just uploaded
	kindSweep      = "sweep"       // a small /v1/sweep: one builtin x two MaxLen points
)

// Server settings: the machine has two cores, so two stage workers and two
// closed-loop clients; the cache limit keeps eviction pressure on.
const (
	serveWorkers    = 2
	serveClients    = 2
	serveCacheLimit = 16
)

type serveReq struct {
	kind   string
	path   string
	body   []byte
	status int // expected HTTP status
	bench  string
	cfg    preexec.Config // evaluate requests
	cells  int64          // evaluations the request asks for
}

// mix fixes the serve_mixed composition: per builtin benchmark, hot
// evaluates, novel machine configs and sweeps; uploads cycle through the
// synth families. Only order and details come from the seed, so every seed
// offers the same work: of 226 requests, 150 hot (66%), 30 novel (13%), 18
// uploads each followed by an evaluate (8% + 8%) and 10 sweeps (4%).
type mix struct{ hot, novel, sweeps, uploads int }

// servePlan is one repetition's requests, fixed by the seed. ops group the
// requests a client sends back to back: an upload and its evaluate.
type servePlan struct {
	reqs  []serveReq
	ops   [][]int
	specs []synth.Spec
	// progs are the builtin and uploaded programs built locally, for the
	// reference evaluations of the output check.
	progs map[string]*preexec.Program
}

// Novel machine configs draw their memory latency stratified over
// [novelLatLo, novelLatLo+novelLatSpan) and cycle through these widths.
const (
	novelLatLo   = 40
	novelLatSpan = 360
)

var novelWidths = []int{2, 4, 6, 8}

func evaluateReq(kind, bench string, cfg preexec.Config) (serveReq, error) {
	body, err := json.Marshal(struct {
		Workload string         `json:"workload"`
		Config   preexec.Config `json:"config"`
	}{bench, cfg})
	return serveReq{kind: kind, path: "/v1/evaluate", body: body, status: http.StatusOK, bench: bench, cfg: cfg, cells: 1}, err
}

func sweepReq(bench string, hot preexec.Config) (serveReq, error) {
	type point struct {
		Name   string         `json:"name"`
		Config preexec.Config `json:"config"`
	}
	var pts []point
	for _, maxLen := range []int{16, 64} {
		cfg := hot
		cfg.Selection.MaxLen = maxLen
		pts = append(pts, point{fmt.Sprintf("len%d", maxLen), cfg})
	}
	// One cell at a time, so a request's stage time never exceeds its
	// latency and serve.overhead_ms stays a plain difference.
	body, err := json.Marshal(struct {
		Benches []string `json:"benches"`
		Points  []point  `json:"points"`
		Workers int      `json:"workers"`
	}{[]string{bench}, pts, 1})
	return serveReq{kind: kindSweep, path: "/v1/sweep", body: body, status: http.StatusOK, bench: bench, cells: int64(len(pts))}, err
}

// uploadSpec is the i-th uploaded scenario: its family and footprint
// (4K-64K words, against the 32K-word L2) follow from i, its data layout,
// loop length and compute chain from the seed. Loops are long enough that
// every evaluation simulates the full sampling window.
func uploadSpec(i int, rng *rand.Rand) synth.Spec {
	families := synth.FamilyNames()
	s := synth.Spec{
		Name:           fmt.Sprintf("perfbench-%03d", i),
		Family:         families[i%len(families)],
		Seed:           rng.Uint64N(1<<20) + 1,
		FootprintWords: 1 << (12 + (i/len(families))%5),
		Iters:          40_000 + rng.IntN(8_000),
		Compute:        rng.IntN(3),
	}
	s.Scatter = s.Family == "gather" && rng.IntN(2) == 1
	return s
}

// newPlan draws one repetition's requests from the seed.
func newPlan(o options) (*servePlan, error) {
	ws, err := o.size.workloadList()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(o.seed, 0x5e7e))
	hot := preexec.DefaultConfig()
	hot.Machine = o.size.machine()
	mx := o.size.mix
	p := &servePlan{progs: map[string]*preexec.Program{}}

	var ops [][]serveReq
	nNovel := mx.novel * len(ws)
	lats := rng.Perm(nNovel)
	for bi, w := range ws {
		for i := 0; i < mx.hot; i++ {
			r, err := evaluateReq(kindHot, w.Name, hot)
			if err != nil {
				return nil, err
			}
			ops = append(ops, []serveReq{r})
		}
		for i := 0; i < mx.novel; i++ {
			k := lats[bi*mx.novel+i]
			cfg := hot
			cfg.Machine.Width = novelWidths[i%len(novelWidths)]
			cfg.Machine.MemLat = novelLatLo + novelLatSpan*k/nNovel + rng.IntN(max(1, novelLatSpan/nNovel))
			if cfg.Machine == hot.Machine {
				cfg.Machine.MemLat++
			}
			r, err := evaluateReq(kindNovel, w.Name, cfg)
			if err != nil {
				return nil, err
			}
			ops = append(ops, []serveReq{r})
		}
		for i := 0; i < mx.sweeps; i++ {
			r, err := sweepReq(w.Name, hot)
			if err != nil {
				return nil, err
			}
			ops = append(ops, []serveReq{r})
		}
	}
	for i := 0; i < mx.uploads; i++ {
		spec := uploadSpec(i, rng)
		if _, err := spec.Workload(); err != nil {
			return nil, fmt.Errorf("serve_mixed plan: %w", err)
		}
		p.specs = append(p.specs, spec)
		body, err := json.Marshal(struct {
			Spec synth.Spec `json:"spec"`
		}{spec})
		if err != nil {
			return nil, err
		}
		up := serveReq{kind: kindUpload, path: "/v1/workloads", body: body, status: http.StatusCreated, bench: spec.Name}
		r, err := evaluateReq(kindUploadEval, spec.Name, hot)
		if err != nil {
			return nil, err
		}
		ops = append(ops, []serveReq{up, r})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for _, op := range ops {
		var idx []int
		for _, r := range op {
			p.reqs = append(p.reqs, r)
			idx = append(idx, len(p.reqs)-1)
		}
		p.ops = append(p.ops, idx)
	}
	for _, w := range ws {
		p.progs[w.Name] = w.Build(1)
	}
	return p, nil
}

// generate builds the uploaded specs' programs locally (the synth inputs).
func (p *servePlan) generate() error {
	for _, s := range p.specs {
		prog, err := synth.Generate(s)
		if err != nil {
			return fmt.Errorf("serve_mixed: generate %s: %w", s.Name, err)
		}
		p.progs[s.Name] = prog
	}
	return nil
}

// unregister removes the repetition's uploads from the process-global
// workload registry, so the next repetition's uploads register afresh under
// the same names.
func (p *servePlan) unregister() {
	for _, s := range p.specs {
		preexec.UnregisterWorkload(s.Name)
	}
}

// server is an in-process preexecd on a loopback port.
type server struct {
	url  string
	hs   *http.Server
	done chan error
	srv  *serve.Server
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve_mixed: listen: %w", err)
	}
	s := &server{
		url:  "http://" + ln.Addr().String(),
		srv:  serve.New(serve.WithWorkers(serveWorkers), serve.WithCacheLimit(serveCacheLimit)),
		done: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.srv.Close()
	if err != nil {
		return fmt.Errorf("serve_mixed: stop server: %w", err)
	}
	return nil
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, err
}

// serveRep is one repetition: the whole plan against a fresh server.
type serveRep struct {
	wall    time.Duration
	latency []float64 // per request, ms; +Inf for a failed request
	bodies  [][]byte  // canonical response per request (sweeps: the cells)
	errs    []error
	failed  int64
	cells   int64
	hash    string
	sim     simulated
	// Traced repetitions: the server's /metrics text and /v1/stats body.
	metrics, stats []byte
}

type serveBench struct {
	o    options
	plan *servePlan
}

// rep runs the plan once on a fresh server with two closed-loop clients. A
// non-nil recorder records a span per request and scrapes the server's
// stage histograms and counters afterwards.
func (s *serveBench) rep(ctx context.Context, rec *recorder, run int) (serveRep, error) {
	srv, err := startServer()
	if err != nil {
		return serveRep{}, err
	}
	defer s.plan.unregister()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()

	n := len(s.plan.reqs)
	r := serveRep{latency: make([]float64, n), bodies: make([][]byte, n), errs: make([]error, n)}
	raw := make([][]byte, n)
	if rec != nil {
		rec.beginRun(run, "serve")
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC() // as for the grids: the previous server's cache is garbage
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := int(next.Add(1)) - 1; op < len(s.plan.ops); op = int(next.Add(1)) - 1 {
				for _, i := range s.plan.ops[op] {
					t0 := time.Now()
					raw[i], r.errs[i] = s.send(ctx, client, srv.url, s.plan.reqs[i])
					t1 := time.Now()
					r.latency[i] = ms(t1.Sub(t0))
					if rec != nil {
						rec.child(s.plan.reqs[i].kind, t0, t1)
					}
				}
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	if rec != nil {
		rec.endRun()
		if r.metrics, err = get(ctx, client, srv.url+"/metrics"); err == nil {
			r.stats, err = get(ctx, client, srv.url+"/v1/stats")
		}
		if err != nil {
			return r, errors.Join(fmt.Errorf("serve_mixed: scrape: %w", err), srv.stop())
		}
	}
	if err := srv.stop(); err != nil {
		return r, err
	}

	h := newResultHash()
	for i, req := range s.plan.reqs {
		if r.errs[i] == nil {
			r.bodies[i], r.errs[i] = s.digest(req, raw[i], &r)
		}
		if r.errs[i] != nil {
			r.failed++
			r.latency[i] = math.Inf(1)
			continue
		}
		r.cells += req.cells
		h.add(req.kind+" "+req.bench, r.bodies[i])
	}
	r.hash = h.sum()
	return r, nil
}

// send issues one request and returns its body, failing on an unexpected
// status.
func (s *serveBench) send(ctx context.Context, c *http.Client, base string, r serveReq) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", r.kind, r.bench, err)
	}
	if resp.StatusCode != r.status {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", r.kind, r.bench, resp.StatusCode, r.status, bytes.TrimSpace(body))
	}
	return body, nil
}

// reportSummary is the part of a Report JSON the simulated metrics read.
type reportSummary struct {
	SpeedupPct float64 `json:"speedup_pct"`
	PredIPC    float64 `json:"predicted_ipc"`
	Pre        struct {
		IPC float64
	} `json:"pre"`
}

// digest validates one response, adds a hot one to the simulated
// aggregates and returns its canonical form.
func (s *serveBench) digest(req serveReq, body []byte, r *serveRep) ([]byte, error) {
	switch req.kind {
	case kindUpload:
		var up struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(body, &up); err != nil || up.Name != req.bench {
			return nil, fmt.Errorf("upload %s: response %s", req.bench, bytes.TrimSpace(body))
		}
		return canonicalJSON(body)
	case kindSweep:
		var res struct {
			Cells []struct {
				Report json.RawMessage `json:"report"`
				Error  string          `json:"error"`
			} `json:"cells"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			return nil, fmt.Errorf("sweep %s: %w", req.bench, err)
		}
		if int64(len(res.Cells)) != req.cells {
			return nil, fmt.Errorf("sweep %s: %d cells, want %d", req.bench, len(res.Cells), req.cells)
		}
		var all []json.RawMessage
		for _, c := range res.Cells {
			if c.Error != "" {
				return nil, fmt.Errorf("sweep %s: cell failed: %s", req.bench, c.Error)
			}
			all = append(all, c.Report)
		}
		// The sweep's cache counters depend on how the two clients
		// interleave; only the cells are outputs.
		cells, err := json.Marshal(all)
		if err != nil {
			return nil, err
		}
		return canonicalJSON(cells)
	default:
		// The simulated metrics average the hot responses: the same
		// builtin-at-default-config reports for every seed.
		if req.kind == kindHot {
			var sum reportSummary
			if err := json.Unmarshal(body, &sum); err != nil {
				return nil, fmt.Errorf("%s %s: decode report: %w", req.kind, req.bench, err)
			}
			r.sim.add(sum.SpeedupPct, sum.PredIPC, sum.Pre.IPC)
		}
		return canonicalJSON(body)
	}
}

// referenceIndices picks the requests whose responses are checked against
// a direct Engine.Evaluate: every hot request, plus one seeded novel request
// and one seeded uploaded-workload evaluate.
func (s *serveBench) referenceIndices() []int {
	rng := rand.New(rand.NewPCG(s.o.seed, 0x4ef))
	var idx, novel, uploads []int
	for i, r := range s.plan.reqs {
		switch r.kind {
		case kindHot:
			idx = append(idx, i)
		case kindNovel:
			novel = append(novel, i)
		case kindUploadEval:
			uploads = append(uploads, i)
		}
	}
	for _, pick := range [][]int{novel, uploads} {
		if len(pick) > 0 {
			idx = append(idx, pick[rng.IntN(len(pick))])
		}
	}
	return idx
}

// checkReferences evaluates each distinct (bench, config) among idx once,
// uncached with replay off, and returns one message per response that
// differs from it.
func (s *serveBench) checkReferences(ctx context.Context, bodies [][]byte, idx []int) ([]string, error) {
	type ref struct {
		bench string
		cfg   preexec.Config
	}
	var refs []ref
	at := map[ref]int{}
	for _, i := range idx {
		k := ref{s.plan.reqs[i].bench, s.plan.reqs[i].cfg}
		if _, ok := at[k]; !ok {
			at[k] = len(refs)
			refs = append(refs, k)
		}
	}
	want := make([][]byte, len(refs))
	err := preexec.ParallelEach(ctx, serveWorkers, len(refs), func(ctx context.Context, j int) error {
		prog := s.plan.progs[refs[j].bench]
		if prog == nil {
			return fmt.Errorf("serve_mixed: no local program for %s", refs[j].bench)
		}
		rep, err := preexec.New(preexec.WithConfig(refs[j].cfg), preexec.WithReplay(false)).Evaluate(ctx, prog)
		if err != nil {
			return fmt.Errorf("serve_mixed: reference %s: %w", refs[j].bench, err)
		}
		data, err := json.Marshal(rep)
		if err == nil {
			want[j], err = canonicalJSON(data)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, i := range idx {
		r := s.plan.reqs[i]
		if !bytes.Equal(bodies[i], want[at[ref{r.bench, r.cfg}]]) {
			bad = append(bad, fmt.Sprintf("serve_mixed: request %d (%s %s) differs from Engine.Evaluate", i, r.kind, r.bench))
		}
	}
	return bad, nil
}

// setupServe draws the plan (building the builtin programs the reference
// check evaluates), generates the synth inputs and starts a server, setups
// times; set-up time is the median. It keeps the last plan and returns the
// set-up times (s) and the synth generation times (ms).
func setupServe(ctx context.Context, o options) (*serveBench, []float64, []float64, error) {
	var setups, gens []float64
	var plan *servePlan
	for i := 0; i < max(o.size.setups, 1); i++ {
		t := time.Now()
		p, err := newPlan(o)
		if err != nil {
			return nil, nil, nil, err
		}
		g := time.Now()
		if err := p.generate(); err != nil {
			return nil, nil, nil, err
		}
		gens = append(gens, ms(time.Since(g)))
		srv, err := startServer()
		if err != nil {
			return nil, nil, nil, err
		}
		client := &http.Client{}
		_, err = get(ctx, client, srv.url+"/v1/stats")
		setups = append(setups, time.Since(t).Seconds())
		client.CloseIdleConnections()
		if err = errors.Join(err, srv.stop()); err != nil {
			return nil, nil, nil, err
		}
		plan = p
	}
	return &serveBench{o: o, plan: plan}, setups, gens, nil
}

func runServe(ctx context.Context, o options) (*outcome, error) {
	s, setups, gens, err := setupServe(ctx, o)
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true, metrics: map[string]float64{}}
	// The untimed warm-up repetition; its responses are the reference every
	// later repetition must reproduce.
	ref, err := s.rep(ctx, nil, 0)
	if err != nil {
		return nil, err
	}
	s.check(out, ref, ref)
	out.note("results_sha256 serve_mixed %s", ref.hash)
	if ref.failed == 0 {
		bad, err := s.checkReferences(ctx, ref.bodies, s.referenceIndices())
		if err != nil {
			return nil, err
		}
		for _, msg := range bad {
			out.fail("%s", msg)
		}
	}
	if o.traced {
		err = s.traced(ctx, out, ref, gens)
	} else {
		err = s.untraced(ctx, out, ref, setups)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (s *serveBench) check(out *outcome, r, ref serveRep) {
	for i, err := range r.errs {
		if err != nil {
			out.fail("serve_mixed: request %d: %v", i, err)
		}
	}
	if r.failed == 0 && r.hash != ref.hash {
		out.fail("serve_mixed: repetition responses differ from the warm-up's")
	}
}

func (s *serveBench) untraced(ctx context.Context, out *outcome, ref serveRep, setups []float64) error {
	var cellRates, reqRates, p50, p95 []float64
	var latencies int
	err := repeat(s.o.budget, 1, func(i int) error {
		r, err := s.rep(ctx, nil, i)
		if err != nil {
			return err
		}
		s.check(out, r, ref)
		out.attempted += int64(len(s.plan.reqs))
		out.failed += r.failed
		cellRates = append(cellRates, float64(r.cells)/r.wall.Seconds())
		reqRates = append(reqRates, float64(int64(len(s.plan.reqs))-r.failed)/r.wall.Seconds())
		p50 = append(p50, quantile(r.latency, 0.50))
		p95 = append(p95, quantile(r.latency, 0.95))
		latencies += len(r.latency)
		return nil
	})
	if err != nil {
		return err
	}
	m := out.metrics
	m["setup_s"] = median(setups)
	m["cells_per_s"] = median(cellRates)
	m["requests_per_s"] = median(reqRates)
	// A failed request's +Inf latency counts as missing every limit; clamp
	// it to a finite number JSON can carry.
	m["latency_ms_p50"] = math.Min(median(p50), math.MaxFloat32)
	m["latency_ms_p95"] = math.Min(median(p95), math.MaxFloat32)
	m["peak_rss_mb"] = peakRSSMB()
	m["ok_frac"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))
	m["speedup_pct_mean"] = ref.sim.speedupMean()
	m["ipc_pred_error_pct"] = ref.sim.ipcErrMean()
	out.note("samples serve_mixed: setups=%d repetitions=%d requests=%d latencies=%d clients=%d (closed loop) requests_per_s=%.4g",
		len(setups), len(reqRates), out.attempted, latencies, serveClients, reqRates)
	return nil
}

// serverStages parses the per-stage latency histogram sums (ms) and counts
// from a /metrics scrape.
func serverStages(text []byte) (busy map[string]float64, calls map[string]float64, err error) {
	busy, calls = map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		for _, suffix := range []string{"_sum", "_count"} {
			prefix := "preexec_stage_duration_seconds" + suffix + `{stage="`
			rest, ok := strings.CutPrefix(line, prefix)
			if !ok {
				continue
			}
			stage, val, ok := strings.Cut(rest, `"} `)
			if !ok {
				return nil, nil, fmt.Errorf("metrics line %q", line)
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			if suffix == "_sum" {
				busy[stage] = v * 1000
			} else {
				calls[stage] = v
			}
		}
	}
	return busy, calls, sc.Err()
}

// traced alternates traced and untraced repetitions. Stage time comes from
// the server's own preexec_stage_duration_seconds histograms (they include
// time queued at the worker gate) and counts from /v1/stats; allocation per
// stage is not observable from outside the server and reads 0.
func (s *serveBench) traced(ctx context.Context, out *outcome, ref serveRep, gens []float64) error {
	rec := newRecorder()
	var (
		tracedWall, plainWall []float64
		calls, busy, share    = map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
		rest, restS           []float64
		buildMS, buildCalls   []float64
		replaysPer            []float64
		last                  preexec.CacheStats
		started, coalesced    []float64
	)
	err := repeat(s.o.budget, 2, func(i int) error {
		traced := i%2 == 0
		var rr *recorder
		if traced {
			rr = rec
		}
		r, err := s.rep(ctx, rr, i)
		if err != nil {
			return err
		}
		s.check(out, r, ref)
		out.attempted += int64(len(s.plan.reqs))
		out.failed += r.failed
		if !traced {
			plainWall = append(plainWall, ms(r.wall))
			return nil
		}
		tracedWall = append(tracedWall, ms(r.wall))
		stBusy, stCalls, err := serverStages(r.metrics)
		if err != nil {
			return err
		}
		var st struct {
			Cache   preexec.CacheStats `json:"cache"`
			Flights struct {
				Started   int64 `json:"started"`
				Coalesced int64 `json:"coalesced"`
			} `json:"flights"`
		}
		if err := json.Unmarshal(r.stats, &st); err != nil {
			return fmt.Errorf("serve_mixed: /v1/stats: %w", err)
		}
		last = st.Cache // reported from the last traced repetition
		started = append(started, float64(st.Flights.Started))
		coalesced = append(coalesced, float64(st.Flights.Coalesced))
		var reqMS float64
		for _, l := range r.latency {
			if !math.IsInf(l, 1) {
				reqMS += l
			}
		}
		stageMS := stBusy["build"]
		for _, name := range stageNames {
			calls[name] = append(calls[name], stCalls[name])
			busy[name] = append(busy[name], stBusy[name])
			share[name] = append(share[name], ratio(stBusy[name], reqMS))
			stageMS += stBusy[name]
		}
		buildMS = append(buildMS, stBusy["build"])
		buildCalls = append(buildCalls, stCalls["build"])
		replaysPer = append(replaysPer, ratio(stCalls["replay"], stCalls["trace"]))
		rest = append(rest, reqMS-stageMS)
		restS = append(restS, ratio(reqMS-stageMS, reqMS))
		return nil
	})
	if err != nil {
		return err
	}
	m := out.metrics
	for _, name := range stageNames {
		m[name+".calls"] = median(calls[name])
		m[name+".busy_ms"] = median(busy[name])
		m[name+".share"] = median(share[name])
		m[name+".alloc_mb"] = 0
		m[name+".allocs"] = 0
	}
	setCache(m, last)
	m["trace.replays_per_record"] = median(replaysPer)
	m["serve.overhead_ms"] = median(rest) / float64(len(s.plan.reqs))
	m["serve.flights_started"] = median(started)
	m["serve.flights_coalesced"] = median(coalesced)
	m["serve.coalesced_ratio"] = ratio(median(coalesced), median(started)+median(coalesced))
	m["build.ms"] = median(buildMS)
	m["build.calls"] = median(buildCalls)
	m["synth.gen_ms"] = median(gens)
	m["synth.specs"] = float64(len(s.plan.specs))
	m["orchestration.ms"] = median(rest)
	m["orchestration.share"] = median(restS)
	m["obs.overhead_pct"] = (median(tracedWall)/median(plainWall) - 1) * 100
	m["traced.wall_ms"] = median(tracedWall)
	out.note("samples serve_mixed: traced_repetitions=%d untraced_repetitions=%d requests_per_repetition=%d",
		len(tracedWall), len(plainWall), len(s.plan.reqs))
	return rec.write(s.o.spansDir, fmt.Sprintf("serve_mixed-seed%d.ndjson", s.o.seed))
}
