package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"perfknow/internal/analysis"
	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/core"
	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/machine"
	"perfknow/internal/openuh"
	"perfknow/internal/perfdmf"
	"perfknow/internal/rules"
	"perfknow/internal/sim"
)

// largeShape is above the 4096-cell columnar threshold: 64 threads × 73
// events = 4672 cells.
var largeShape = synthShape{threads: 64, regions: 6, loops: 5, planted: 2}

// diagnoseWL is one perfdmfd (file-backed repository, loopback HTTP) and
// one client running the captured scripts and server-side analyses over a
// fixed live set. Nothing is written after setup.
type diagnoseWL struct {
	env      *env
	rulesDir string
	repo     *perfdmf.Repository
	srv      *httpService
	client   *dmfclient.Client
	trials   map[string]*perfdmf.Trial // coordinates → the benchmark's copy
	synth    map[string]*synth
	ops      []diagOp
	stdout   map[string]string // request key → first stdout seen
	clusters map[string]*analysis.Clustering
}

type diagOp struct {
	key     string // trial coordinates "app/exp/name"
	script  string // non-empty: a diagnose request
	args    []string
	analyze dmfwire.AnalyzeRequest
	large   bool
}

func (o diagOp) id() string {
	if o.script != "" {
		return o.script + " " + strings.Join(o.args, " ")
	}
	a := o.analyze
	return fmt.Sprintf("analyze %s %s/%s/%s", a.Op, a.App, a.Experiment, a.Trial)
}

// kind names the operation type for the per-kind latency summary.
func (o diagOp) kind() string {
	size := "small"
	if o.large {
		size = "large"
	}
	if o.script != "" {
		return o.script + "." + size
	}
	return "analyze." + o.analyze.Op + "." + size
}

func coords(t *perfdmf.Trial) string { return t.App + "/" + t.Experiment + "/" + t.Name }

// simulatedTrials runs the case-study codes on the simulated Altix: MSA
// with the static and dynamic,1 schedules (Fig. 4), GenIDLEST 45rib
// unoptimized and optimized on 8 threads, and GenIDLEST 45rib on 8 MPI
// ranks at -O0..-O3 for the power study. All are below the columnar
// threshold.
func simulatedTrials() (map[string]*perfdmf.Trial, error) {
	altix := machine.Altix(16, 2)
	out := map[string]*perfdmf.Trial{}
	for name, sched := range map[string]sim.Schedule{
		"static":    {Kind: sim.StaticSched},
		"dynamic_1": {Kind: sim.DynamicSched, Chunk: 1},
	} {
		t, err := msa.Run(altix, msa.DefaultParams(16, sched))
		if err != nil {
			return nil, err
		}
		t.Experiment, t.Name = "fig4", name
		out["msa_"+name] = t
	}
	for name, opt := range map[string]bool{"unopt_8": false, "opt_8": true} {
		cfg := genidlest.DefaultConfig(genidlest.Rib45(), genidlest.OpenMP, 8)
		cfg.Optimized = opt
		t, err := genidlest.Run(altix, cfg)
		if err != nil {
			return nil, err
		}
		t.Experiment, t.Name = "locality", name
		out["gen_"+name] = t
	}
	for i, lvl := range []openuh.OptLevel{openuh.O0, openuh.O1, openuh.O2, openuh.O3} {
		cfg := genidlest.DefaultConfig(genidlest.Rib45(), genidlest.MPI, 8)
		cfg.OptLevel = lvl
		t, err := genidlest.Run(altix, cfg)
		if err != nil {
			return nil, err
		}
		t.Experiment, t.Name = "power", lvl.String()
		out[fmt.Sprintf("power_O%d", i)] = t
	}
	for k, t := range out {
		if c := len(t.Events) * t.Threads; c >= perfdmf.DefaultColumnarMinCells {
			return nil, fmt.Errorf("simulated trial %s has %d cells, want fewer than %d", k, c, perfdmf.DefaultColumnarMinCells)
		}
	}
	return out, nil
}

func newDiagnose(e *env) (workload, error) {
	w := &diagnoseWL{env: e, trials: map[string]*perfdmf.Trial{}, synth: map[string]*synth{},
		stdout: map[string]string{}, clusters: map[string]*analysis.Clustering{}}
	assets := filepath.Join(e.dir, "assets")
	if err := diagnosis.WriteAssets(assets); err != nil {
		return nil, err
	}
	w.rulesDir = filepath.Join(assets, "rules")
	repo, err := perfdmf.OpenRepositoryFS(filepath.Join(e.dir, "repo"), e.fs())
	if err != nil {
		return nil, err
	}
	w.repo = repo

	simTrials, err := simulatedTrials()
	if err != nil {
		return nil, err
	}
	for _, t := range simTrials {
		w.trials[coords(t)] = t
	}
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < 4; i++ {
		s := genTrial(rng, "synth", "large", fmt.Sprintf("s%d", i), largeShape)
		if err := s.expectFlagged(); err != nil {
			return nil, err
		}
		w.trials[coords(s.t)] = s.t
		w.synth[coords(s.t)] = s
	}
	for _, k := range sortedKeys(w.trials) {
		if err := repo.Save(w.trials[k]); err != nil {
			return nil, err
		}
	}

	srv, err := dmfserver.New(dmfserver.Config{Repo: repo, RulesDir: w.rulesDir, Jobs: 2,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return nil, err
	}
	w.srv, err = serve(srv)
	if err != nil {
		return nil, err
	}
	w.client, err = dmfclient.New(w.srv.url, dmfclient.WithTransport(e.transport()), dmfclient.WithTimeout(60*time.Second))
	if err != nil {
		w.close()
		return nil, err
	}
	w.ops = w.round(simTrials)
	return w, nil
}

// scriptPasses is how many times a round runs every captured script over
// each trial it applies to. The request shares are an assumption, not
// measured usage: in the paper's automated use the captured scripts are the
// main traffic, and direct analysis queries are an analyst's occasional
// look, so scripts weigh three passes against one query of each analysis on
// one small and one large trial.
const scriptPasses = 3

// round lists one round's operations: scriptPasses passes of all eight
// captured scripts over the trials they apply to, and the five analyses over
// one small and one large trial.
func (w *diagnoseWL) round(simTrials map[string]*perfdmf.Trial) []diagOp {
	args := func(t *perfdmf.Trial, extra ...string) []string {
		return append([]string{t.App, t.Experiment, t.Name}, extra...)
	}
	var ops []diagOp
	script := func(name string, t *perfdmf.Trial, extra ...string) {
		ops = append(ops, diagOp{key: coords(t), script: name, args: args(t, extra...), large: w.synth[coords(t)] != nil})
	}
	unopt, opt := simTrials["gen_unopt_8"], simTrials["gen_opt_8"]
	for pass := 0; pass < scriptPasses; pass++ {
		script("load_balance", simTrials["msa_static"])
		script("load_balance", simTrials["msa_dynamic_1"])
		for _, t := range []*perfdmf.Trial{unopt, opt} {
			script("inefficiency", t)
			script("stall_decomposition", t)
			script("stalls_per_cycle", t)
			script("thread_clusters", t)
		}
		script("memory_analysis", unopt)
		script("memory_analysis", opt)
		script("synchronization", unopt)
		ops = append(ops, diagOp{key: coords(simTrials["power_O0"]), script: "power_levels", args: []string{simTrials["power_O0"].App, "power"}})
		for _, k := range sortedKeys(w.synth) {
			script("load_balance", w.synth[k].t)
			script("thread_clusters", w.synth[k].t)
		}
	}
	for _, t := range []*perfdmf.Trial{unopt, w.synth[sortedKeys(w.synth)[0]].t} {
		base := dmfwire.AnalyzeRequest{App: t.App, Experiment: t.Experiment, Trial: t.Name, Metric: perfdmf.TimeMetric}
		large := w.synth[coords(t)] != nil
		for _, op := range []string{"stats", "derive", "topn", "loadbalance", "cluster"} {
			req := base
			req.Op = op
			switch op {
			case "derive":
				req.Metric, req.Lhs, req.Rhs, req.Operator = "", "BACK_END_BUBBLE_ALL", "CPU_CYCLES", "/"
			case "topn":
				req.N = 5
			case "cluster":
				req.K = 2
			}
			ops = append(ops, diagOp{key: coords(t), analyze: req, large: large})
		}
	}
	return ops
}

func (w *diagnoseWL) clients() []func(*recorder, *rand.Rand) {
	return []func(*recorder, *rand.Rand){func(rec *recorder, rng *rand.Rand) {
		for _, op := range shuffled(rng, w.ops) {
			if op.script != "" {
				w.diagnose(rec, op)
			} else {
				w.analyze(rec, op)
			}
		}
	}}
}

func (w *diagnoseWL) diagnose(rec *recorder, op diagOp) {
	var resp *dmfwire.DiagnoseResponse
	var remote float64
	err := rec.op(op.kind(), func() (err error) {
		sp := w.env.tr.start("dmfserver.diagnose")
		resp, err = w.client.Diagnose(dmfwire.DiagnoseRequest{Script: op.script, Args: op.args})
		remote = sp.end()
		return err
	})
	if err != nil {
		return
	}
	id := op.id()
	if first, ok := w.stdout[id]; !ok {
		w.stdout[id] = resp.Stdout
	} else if first != resp.Stdout {
		w.env.chk.failf("diagnose %s: stdout differs between identical requests", id)
	}
	if w.env.tr != nil {
		rec.after(func() { w.decompose(op, remote) })
	}
}

// scriptRun is one captured script run in a fresh core.Session.
type scriptRun struct {
	s              *core.Session
	out            string
	setupMs, runMs float64
}

// runScript runs a captured script with its arguments over repo in a fresh
// session with the rules in rulesDir, as the server does for a diagnose
// request, timing the session set-up and the script under tr (nil: untimed).
func runScript(tr *tracer, repo *perfdmf.Repository, rulesDir, name string, args []string) (scriptRun, error) {
	sp := tr.start("core.session_setup")
	s := core.NewSession(repo)
	var buf strings.Builder
	s.SetOutput(&buf)
	diagnosis.Install(s, rulesDir)
	diagnosis.SetArgs(s, args)
	setup := sp.end()
	sp = tr.start("script.run")
	err := s.RunScript(diagnosis.ScriptFiles()[name+".pes"])
	run := sp.end()
	if err != nil {
		return scriptRun{}, fmt.Errorf("%s %v: %w", name, args, err)
	}
	return scriptRun{s, buf.String(), setup, run}, nil
}

// decompose replays a diagnose request in process, timing each layer the
// server goes through: session set-up, the script, and for scripts whose
// facts come from one call, the rule file load, the fact assertion and the
// rule run.
func (w *diagnoseWL) decompose(op diagOp, remote float64) {
	tr := w.env.tr
	r, err := runScript(tr, w.repo, w.rulesDir, op.script, op.args)
	if err != nil {
		w.env.chk.failf("in-process: %v", err)
		return
	}
	tr.observe("dmfserver.overhead", remote-r.setupMs-r.runMs)
	tr.count("script.steps", float64(r.s.Interp.Steps()))
	tr.count("script.runs", 1)

	t := w.trials[op.key]
	var rulesFile string
	var facts func(*rules.Engine) (int, error)
	switch op.script {
	case "load_balance":
		rulesFile = "LoadBalanceRules.prl"
		facts = func(eng *rules.Engine) (int, error) {
			ls := core.NewSession(nil)
			ls.Engine = eng
			return ls.AssertLoadBalanceFacts(t, perfdmf.TimeMetric), nil
		}
	case "inefficiency":
		rulesFile, facts = "OpenUHRules.prl", func(eng *rules.Engine) (int, error) { return diagnosis.AssertInefficiencyFacts(eng, t) }
	case "stall_decomposition":
		rulesFile, facts = "OpenUHRules.prl", func(eng *rules.Engine) (int, error) { return diagnosis.AssertStallSourceFacts(eng, t) }
	case "memory_analysis":
		rulesFile, facts = "OpenUHRules.prl", func(eng *rules.Engine) (int, error) { return diagnosis.AssertLocalityFacts(eng, t) }
	case "thread_clusters":
		rulesFile, facts = "OpenUHRules.prl", func(eng *rules.Engine) (int, error) {
			return diagnosis.AssertClusterFacts(eng, t, perfdmf.TimeMetric, 2)
		}
	default:
		return
	}
	eng := rules.NewEngine()
	sp := tr.start("rules.load")
	err = eng.LoadString(diagnosis.RuleFiles()[rulesFile])
	sp.end()
	if err != nil {
		w.env.chk.failf("load %s: %v", rulesFile, err)
		return
	}
	sp = tr.start("diagnosis.facts")
	n, err := facts(eng)
	sp.end()
	if err != nil {
		w.env.chk.failf("facts for %s: %v", op.id(), err)
		return
	}
	sp = tr.start("rules.run")
	res, err := eng.Run()
	sp.end()
	if err != nil {
		w.env.chk.failf("rules for %s: %v", op.id(), err)
		return
	}
	tr.count("rules.facts", float64(n))
	tr.count("rules.firings", float64(len(res.Fired)))
	tr.count("rules.runs", 1)
}

func (w *diagnoseWL) analyze(rec *recorder, op diagOp) {
	var resp *dmfwire.AnalyzeResponse
	err := rec.op(op.kind(), func() (err error) {
		sp := w.env.tr.start("dmfserver.analyze")
		resp, err = w.client.Analyze(op.analyze)
		sp.end()
		return err
	})
	if err != nil {
		return
	}
	t := w.trials[op.key]
	req := op.analyze
	if err := checkAnalyze(t, req, resp); err != nil {
		w.env.chk.failf("%s: %v", op.id(), err)
	}
	if req.Op == "cluster" {
		if first, ok := w.clusters[op.key]; !ok {
			w.clusters[op.key] = resp.Clustering
		} else if !reflect.DeepEqual(first, resp.Clustering) {
			w.env.chk.failf("%s: clustering differs between identical requests", op.id())
		}
	}
	if w.env.tr != nil {
		rec.after(func() { w.analyzeInProcess(op) })
	}
}

// analyzeInProcess replays an analyze request through the analysis package,
// timing the analysis the server runs for it.
func (w *diagnoseWL) analyzeInProcess(op diagOp) {
	t, req := w.trials[op.key], op.analyze
	size := ".small"
	if op.large {
		size = ".large"
	}
	var err error
	sp := w.env.tr.start("analysis." + req.Op + size)
	switch req.Op {
	case "stats":
		analysis.ExclusiveStats(t, req.Metric)
	case "derive":
		var dop analysis.Op
		if dop, err = analysis.ParseOp(req.Operator); err == nil {
			_, _, err = analysis.DeriveMetric(t, req.Lhs, req.Rhs, dop)
		}
	case "topn":
		analysis.TopN(t, req.Metric, req.N)
	case "loadbalance":
		analysis.LoadBalanceAnalysis(t, req.Metric)
	case "cluster":
		_, err = analysis.KMeans(t, req.Metric, req.K, 100)
	}
	sp.end()
	if err != nil {
		w.env.chk.failf("in-process %s: %v", op.id(), err)
	}
}

// checkAnalyze compares a server-side analysis with the benchmark's own
// computation over its copy of the trial.
func checkAnalyze(t *perfdmf.Trial, req dmfwire.AnalyzeRequest, resp *dmfwire.AnalyzeResponse) error {
	switch req.Op {
	case "stats":
		own := ownStats(t, req.Metric)
		if len(resp.Stats) != len(own) {
			return fmt.Errorf("%d stats rows, want %d", len(resp.Stats), len(own))
		}
		for _, s := range resp.Stats {
			o, ok := own[s.Event]
			if !ok || !near(s.Mean, o.mean) || !near(s.StdDev, o.std) || !near(s.Min, o.min) ||
				!near(s.Max, o.max) || !near(s.Total, o.total) || s.Threads != t.Threads {
				return fmt.Errorf("stats for %q = %+v, want %+v", s.Event, s, o)
			}
		}
	case "derive":
		if resp.Trial == nil {
			return errors.New("no derived trial")
		}
		for _, e := range t.Events {
			ge := resp.Trial.Event(e.Name)
			if ge == nil {
				return fmt.Errorf("derived trial lacks %q", e.Name)
			}
			for i, rhs := range e.Exclusive[req.Rhs] {
				if rhs == 0 {
					continue
				}
				want := e.Exclusive[req.Lhs][i] / rhs
				if got := ge.Exclusive[resp.Metric]; len(got) != t.Threads || !near(got[i], want) {
					return fmt.Errorf("derived %s of %q thread %d differs (want %v)", resp.Metric, e.Name, i, want)
				}
			}
		}
	case "topn":
		if want := ownTopN(t, req.Metric, req.N); !reflect.DeepEqual(resp.Events, want) {
			return fmt.Errorf("topn = %v, want %v", resp.Events, want)
		}
	case "loadbalance":
		own := ownStats(t, req.Metric)
		want := 0
		for _, o := range own {
			if o.mean != 0 {
				want++
			}
		}
		if len(resp.LoadBalance) != want {
			return fmt.Errorf("%d loadbalance rows, want one per flat event with a non-zero mean (%d)", len(resp.LoadBalance), want)
		}
		seen := map[string]bool{}
		for _, lb := range resp.LoadBalance {
			o, ok := own[lb.Event]
			if !ok || seen[lb.Event] {
				return fmt.Errorf("loadbalance row for %q is unknown or repeated", lb.Event)
			}
			seen[lb.Event] = true
			if !near(lb.Mean, o.mean) || !near(lb.Ratio, o.std/o.mean) {
				return fmt.Errorf("loadbalance for %q = %+v, want mean %v ratio %v", lb.Event, lb, o.mean, o.std/o.mean)
			}
		}
	case "cluster":
		if resp.Clustering == nil {
			return errors.New("no clustering")
		}
	}
	return nil
}

// flaggedLoops parses the events the load-imbalance rule reported.
func flaggedLoops(stdout string) map[string]bool {
	out := map[string]bool{}
	const prefix = "Load imbalance detected: "
	for _, line := range strings.Split(stdout, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			if i := strings.Index(rest, " ("); i > 0 {
				out[rest[:i]] = true
			}
		}
	}
	return out
}

// finish checks the first stdout of each distinct request: it must equal
// an in-process Session run of the same request, the synthetic trials must
// have exactly their planted loops flagged, and MSA must be flagged under
// the static schedule and not under dynamic,1.
func (w *diagnoseWL) finish(chk *checker) {
	done := map[string]bool{}
	for _, op := range w.ops {
		if op.script == "" || done[op.id()] {
			continue
		}
		done[op.id()] = true
		got, ok := w.stdout[op.id()]
		if !ok {
			chk.failf("diagnose %s never completed", op.id())
			continue
		}
		if r, err := runScript(nil, w.repo, w.rulesDir, op.script, op.args); err != nil {
			chk.failf("in-process: %v", err)
		} else if r.out != got {
			chk.failf("diagnose %s: remote stdout differs from the in-process run", op.id())
		}
		if op.script != "load_balance" {
			continue
		}
		flagged := flaggedLoops(got)
		if s := w.synth[op.key]; s != nil {
			if !reflect.DeepEqual(flagged, s.planted) {
				chk.failf("load_balance %s flagged %v, planted %v", op.key, flagged, s.planted)
			}
		} else if static := strings.HasSuffix(op.key, "/static"); static != (len(flagged) > 0) {
			chk.failf("load_balance %s flagged %v (Fig. 4: static imbalanced, dynamic,1 balanced)", op.key, flagged)
		}
	}
}

func (w *diagnoseWL) storage() (int64, int64, error) {
	disk, err := dirBytes(filepath.Join(w.env.dir, "repo"))
	if err != nil {
		return 0, 0, err
	}
	input, err := jsonBytes(w.trials)
	return disk, input, err
}

func (w *diagnoseWL) close() {
	if w.srv != nil {
		w.srv.stop()
	}
}

// httpService is one dmfserver.Server on a loopback listener.
type httpService struct {
	srv  *dmfserver.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func serve(srv *dmfserver.Server) (*httpService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	return serveOn(srv, ln), nil
}

func serveOn(srv *dmfserver.Server, ln net.Listener) *httpService {
	s := &httpService{srv: srv, hs: srv.HTTPServer(ln.Addr().String()), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s
}

// stop closes the listener and connections and waits for Serve to return.
func (s *httpService) stop() {
	s.hs.Close()
	<-s.done
	s.srv.Close()
}
