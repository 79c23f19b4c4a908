package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfknow/internal/cluster"
	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// smallShape is below the columnar threshold: 16 threads × 25 events.
var smallShape = synthShape{threads: 16, regions: 3, loops: 3, planted: 1}

const (
	ingestMembers  = 3
	ingestReplicas = 2
	streamThreads  = 8
	streamChunks   = 8
)

// ingestWL is a three-member perfdmfd cluster with R=2, every member running
// its gossip agent (the timed repair loop off), behind a
// cluster.ShardedStore. A writer client overwrites, deletes and re-creates,
// uploads TAU and gprof profiles and streams chunks; a reader client reads
// and lists keys the writer overwrites but never deletes.
type ingestWL struct {
	env      *env
	members  []*member
	store    *cluster.ShardedStore
	direct   map[string]*dmfclient.Client // member URL → client
	ctx      context.Context
	readKeys []*versioned
	byExp    map[string][]string // experiment → reader trial names
	fixed    map[string]*fixedKey
	groups   [][]writeOp
	stream   *streamPlan

	mu   sync.Mutex
	last map[string]*perfdmf.Trial // coordinates → last acknowledged version

	probe *probe // traced runs only
}

type member struct {
	url   string
	dir   string
	repo  *perfdmf.Repository
	agent *cluster.Agent
	svc   *httpService
}

// versioned is a reader key: the writer alternates between two versions.
type versioned struct {
	key      string
	versions [2]*perfdmf.Trial
	next     int
}

// fixedKey is a key the writer deletes and re-creates with the same
// content: by cluster save, TAU upload, gprof upload or stream.
type fixedKey struct {
	want *perfdmf.Trial // the values a reader of the upload must see
	tau  map[string]string
	prof string
}

// writeOp is one writer call; groups of them run in order.
type writeOp struct {
	kind string
	do   func(rec *recorder)
}

func newIngest(e *env) (workload, error) {
	w := &ingestWL{env: e, direct: map[string]*dmfclient.Client{}, ctx: context.Background(),
		byExp: map[string][]string{}, fixed: map[string]*fixedKey{}, last: map[string]*perfdmf.Trial{}}
	if err := w.startCluster(); err != nil {
		w.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	// Twelve reader keys over six experiments (placement hashes on
	// application and experiment): eight below the columnar threshold,
	// four above.
	for i := 0; i < 12; i++ {
		shape := smallShape
		if i%3 == 2 {
			shape = largeShape
		}
		exp, name := fmt.Sprintf("json%d", i%6), fmt.Sprintf("k%02d", i)
		v := &versioned{key: "ingest/" + exp + "/" + name}
		for j := range v.versions {
			t := genTrial(rng, "ingest", exp, name, shape).t
			t.Metadata["version"] = strconv.Itoa(j)
			v.versions[j] = t
		}
		w.readKeys = append(w.readKeys, v)
		w.byExp[exp] = append(w.byExp[exp], name)
		if err := w.store.Save(v.versions[0]); err != nil {
			w.close()
			return nil, err
		}
		w.last[v.key] = v.versions[0]
		v.next = 1
	}
	for i := 0; i < 2; i++ {
		t := genTrial(rng, "ingest", fmt.Sprintf("churn%d", i), "c", smallShape).t
		w.fixed[coords(t)] = &fixedKey{want: t}
		t = genTrial(rng, "ingest", fmt.Sprintf("tau%d", i), "t", smallShape).t
		w.fixed[coords(t)] = &fixedKey{want: t, tau: tauFiles(t)}
		text, want := gprofProfile(rng, "ingest", fmt.Sprintf("gprof%d", i), "g", 40)
		w.fixed[coords(want)] = &fixedKey{want: want, prof: text}
	}
	w.stream = planStream(rng)
	w.fixed[coords(w.stream.want)] = &fixedKey{want: w.stream.want}
	for _, k := range sortedKeys(w.fixed) {
		if err := w.store.Save(w.fixed[k].want); err != nil {
			w.close()
			return nil, err
		}
		w.last[k] = w.fixed[k].want
	}
	if e.tr != nil {
		p, err := newProbe(filepath.Join(e.dir, "probe"), e.tr)
		if err != nil {
			w.close()
			return nil, err
		}
		w.probe = p
		for _, v := range w.readKeys {
			p.save(v.versions[0])
		}
	}
	w.groups = w.writerGroups()
	return w, nil
}

func (w *ingestWL) startCluster() error {
	lns := make([]net.Listener, ingestMembers)
	urls := make([]string, ingestMembers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	desc := dmfwire.Ring{Epoch: 1, Replicas: ingestReplicas, VNodes: 64, Seed: 42, Peers: urls}.Canonical()
	assets := filepath.Join(w.env.dir, "assets")
	if err := diagnosis.WriteAssets(assets); err != nil {
		return err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for i, ln := range lns {
		m := &member{url: urls[i], dir: filepath.Join(w.env.dir, fmt.Sprintf("m%d", i))}
		var err error
		if m.repo, err = perfdmf.OpenRepositoryFS(filepath.Join(m.dir, "repo"), w.env.fs()); err == nil {
			m.agent, err = cluster.NewAgent(cluster.AgentConfig{Self: m.url, Ring: desc,
				HintsDir: filepath.Join(m.dir, "hints"), Logger: quiet})
		}
		var srv *dmfserver.Server
		if err == nil {
			srv, err = dmfserver.New(dmfserver.Config{Repo: m.repo, RulesDir: filepath.Join(assets, "rules"),
				Jobs: 2, Node: m.agent, Logger: quiet})
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return err
		}
		m.svc = serveOn(srv, ln)
		m.agent.Start()
		w.members = append(w.members, m)
	}
	rt := w.env.transport()
	opts := []dmfclient.Option{dmfclient.WithTransport(rt), dmfclient.WithTimeout(60 * time.Second)}
	var err error
	if w.store, err = cluster.Dial(desc, opts); err != nil {
		return err
	}
	for _, m := range w.members {
		c, err := dmfclient.New(m.url, opts...)
		if err != nil {
			return err
		}
		w.direct[m.url] = c
	}
	return nil
}

// owner is the first owner of a key's placement: uploads that bypass the
// cluster store go there, and the next Rebalance copies them to the second.
func (w *ingestWL) owner(t *perfdmf.Trial) *dmfclient.Client {
	return w.direct[w.store.Ring().Owners(t.App, t.Experiment)[0]]
}

// writerGroups lists one writer round: each reader key overwritten twice;
// each churn key deleted, confirmed gone and re-created; each TAU and gprof
// key deleted, uploaded to one member and read back; the stream deleted,
// opened, appended and sealed, and read back; and one Rebalance.
func (w *ingestWL) writerGroups() [][]writeOp {
	var groups [][]writeOp
	for _, v := range w.readKeys {
		v := v
		// Two overwrites per round: a round ends on the version it began
		// with, so the live set at run end does not depend on run length.
		ow := []writeOp{{"cluster.save." + sizeClass(v.versions[0]), func(rec *recorder) { w.overwrite(rec, v) }}}
		groups = append(groups, ow, ow)
	}
	for _, k := range sortedKeys(w.fixed) {
		fk := w.fixed[k]
		t := fk.want
		del := writeOp{"cluster.delete", func(rec *recorder) { w.delete(rec, t) }}
		switch {
		case fk.tau != nil:
			groups = append(groups, []writeOp{del,
				{"upload.tau", func(rec *recorder) { w.upload(rec, "tau", fk) }},
				{"member.get", func(rec *recorder) { w.readBack(rec, fk) }}})
		case fk.prof != "":
			groups = append(groups, []writeOp{del,
				{"upload.gprof", func(rec *recorder) { w.upload(rec, "gprof", fk) }},
				{"member.get", func(rec *recorder) { w.readBack(rec, fk) }}})
		case t == w.stream.want:
			g := []writeOp{del}
			g = append(g, w.streamOps()...)
			groups = append(groups, append(g, writeOp{"member.get", func(rec *recorder) { w.readBack(rec, fk) }}))
		default:
			groups = append(groups, []writeOp{del,
				{"cluster.get_deleted", func(rec *recorder) { w.getDeleted(rec, t) }},
				{"cluster.save.small", func(rec *recorder) { w.save(rec, t) }}})
		}
	}
	groups = append(groups, []writeOp{{"cluster.rebalance", w.rebalance}})
	return groups
}

func sizeClass(t *perfdmf.Trial) string {
	if len(t.Events)*t.Threads >= perfdmf.DefaultColumnarMinCells {
		return "large"
	}
	return "small"
}

func (w *ingestWL) clients() []func(*recorder, *rand.Rand) {
	writer := func(rec *recorder, rng *rand.Rand) {
		for _, g := range shuffled(rng, w.groups) {
			for _, op := range g {
				op.do(rec)
			}
		}
	}
	reader := func(rec *recorder, rng *rand.Rand) {
		for _, v := range shuffled(rng, w.readKeys) {
			w.read(rec, v)
		}
		for _, exp := range sortedKeys(w.byExp) {
			w.list(rec, exp)
		}
	}
	return []func(*recorder, *rand.Rand){writer, reader}
}

func (w *ingestWL) overwrite(rec *recorder, v *versioned) {
	t := v.versions[v.next]
	if w.save(rec, t) {
		v.next = 1 - v.next
		if p := w.probe; p != nil {
			rec.after(func() { p.save(t) })
		}
	}
}

func (w *ingestWL) save(rec *recorder, t *perfdmf.Trial) bool {
	// The writer alone sends replica uploads, so the replica requests the
	// transport saw during this call are this save's fan-out.
	var before float64
	if w.env.tr != nil {
		before = w.env.tr.n("http.upload.json")
	}
	err := rec.op("cluster.save."+sizeClass(t), func() error {
		sp := w.env.tr.start("cluster.save")
		defer sp.end()
		return w.store.SaveContext(w.ctx, t)
	})
	if w.env.tr != nil {
		w.env.tr.count("cluster.replica_writes", w.env.tr.n("http.upload.json")-before)
	}
	if err != nil {
		return false
	}
	w.mu.Lock()
	w.last[coords(t)] = t
	w.mu.Unlock()
	return true
}

func (w *ingestWL) delete(rec *recorder, t *perfdmf.Trial) {
	err := rec.op("cluster.delete", func() error {
		sp := w.env.tr.start("cluster.delete")
		defer sp.end()
		return w.store.DeleteContext(w.ctx, t.App, t.Experiment, t.Name)
	})
	if err == nil {
		w.mu.Lock()
		delete(w.last, coords(t))
		w.mu.Unlock()
	}
}

// getDeleted reads a key just deleted: it must be gone.
func (w *ingestWL) getDeleted(rec *recorder, t *perfdmf.Trial) {
	var getErr error
	rec.op("cluster.get_deleted", func() error {
		_, getErr = w.store.GetTrialContext(w.ctx, t.App, t.Experiment, t.Name)
		if getErr == nil || errors.Is(getErr, perfdmf.ErrNotFound) {
			return nil
		}
		return getErr
	})
	if getErr == nil {
		w.env.chk.failf("deleted trial %s still readable", coords(t))
	}
}

func (w *ingestWL) upload(rec *recorder, format string, fk *fixedKey) {
	t := fk.want
	var sum *dmfwire.UploadSummary
	err := rec.op("upload."+format, func() (err error) {
		sp := w.env.tr.start("dmfserver.upload." + format)
		defer sp.end()
		c := w.owner(t)
		if format == "tau" {
			sum, err = c.UploadTAU(fk.tau, t.App, t.Experiment, t.Name)
		} else {
			sum, err = c.UploadGprof(strings.NewReader(fk.prof), t.App, t.Experiment, t.Name)
		}
		return err
	})
	if err != nil {
		return
	}
	if sum.Threads != t.Threads || sum.Events != len(t.Events) || sum.Metrics != len(t.Metrics) {
		w.env.chk.failf("%s upload of %s acknowledged %+v", format, coords(t), *sum)
	}
	w.mu.Lock()
	w.last[coords(t)] = t
	w.mu.Unlock()
}

// readBack fetches an uploaded or streamed trial from the member it went
// to and compares it with the values the benchmark wrote.
func (w *ingestWL) readBack(rec *recorder, fk *fixedKey) {
	t := fk.want
	var got *perfdmf.Trial
	err := rec.op("member.get", func() (err error) {
		got, err = w.owner(t).GetTrialContext(w.ctx, t.App, t.Experiment, t.Name)
		return err
	})
	if err != nil {
		return
	}
	if err := sameValues(t, got); err != nil {
		w.env.chk.failf("read back %s: %v", coords(t), err)
	}
}

func (w *ingestWL) rebalance(rec *recorder) {
	var rep *dmfwire.RepairReport
	err := rec.op("cluster.rebalance", func() (err error) {
		sp := w.env.tr.start("cluster.rebalance")
		defer sp.end()
		rep, err = w.store.Rebalance(w.ctx)
		return err
	})
	if err == nil && len(rep.Errors) > 0 {
		w.env.chk.failf("rebalance errors: %v", rep.Errors)
	}
}

// read fetches a reader key through the cluster store: it must be one of
// the two versions the writer alternates between.
func (w *ingestWL) read(rec *recorder, v *versioned) {
	t0 := v.versions[0]
	var got *perfdmf.Trial
	err := rec.op("cluster.get."+sizeClass(t0), func() (err error) {
		sp := w.env.tr.start("cluster.get")
		defer sp.end()
		got, err = w.store.GetTrialContext(w.ctx, t0.App, t0.Experiment, t0.Name)
		return err
	})
	if err != nil {
		return
	}
	j, convErr := strconv.Atoi(got.Metadata["version"])
	if convErr != nil || j < 0 || j > 1 {
		w.env.chk.failf("read %s: version %q was never written", v.key, got.Metadata["version"])
	} else if err := sameValues(v.versions[j], got); err != nil {
		w.env.chk.failf("read %s: %v", v.key, err)
	}
	if p := w.probe; p != nil {
		rec.after(func() { p.get(t0) })
	}
}

func (w *ingestWL) list(rec *recorder, exp string) {
	var names []string
	err := rec.op("cluster.list", func() (err error) {
		names, err = w.store.ListTrials("ingest", exp)
		return err
	})
	if err != nil {
		return
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, n := range w.byExp[exp] {
		if !have[n] {
			w.env.chk.failf("listing of ingest/%s lacks %s", exp, n)
		}
	}
}

// finish runs a last Rebalance, then checks that every live key sits on
// exactly R members with the last acknowledged content, and that every
// member's repository verifies clean.
func (w *ingestWL) finish(chk *checker) {
	rep, err := w.store.Rebalance(w.ctx)
	if err != nil || len(rep.Errors) > 0 {
		chk.failf("final rebalance: %v %v", err, rep)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if want := len(w.readKeys) + len(w.fixed); len(w.last) != want {
		chk.failf("%d live keys at run end, want %d", len(w.last), want)
	}
	for k, want := range w.last {
		holders := 0
		for _, m := range w.members {
			got, err := m.repo.GetTrial(want.App, want.Experiment, want.Name)
			if errors.Is(err, perfdmf.ErrNotFound) {
				continue
			}
			if err != nil {
				chk.failf("%s on %s: %v", k, m.url, err)
				continue
			}
			holders++
			if err := sameValues(want, got); err != nil {
				chk.failf("%s on %s: %v", k, m.url, err)
			}
		}
		if holders != ingestReplicas {
			chk.failf("%s held by %d members, want %d", k, holders, ingestReplicas)
		}
	}
	for _, m := range w.members {
		rep, err := m.repo.Verify()
		if err != nil || !rep.Clean() {
			chk.failf("verify %s: %v %+v", m.url, err, rep)
		}
	}
}

func (w *ingestWL) storage() (int64, int64, error) {
	var dirs []string
	for _, m := range w.members {
		dirs = append(dirs, m.dir)
	}
	disk, err := dirBytes(dirs...)
	if err != nil {
		return 0, 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	input, err := jsonBytes(w.last)
	return disk, input, err
}

func (w *ingestWL) close() {
	for _, m := range w.members {
		m.agent.Close()
		m.svc.stop()
	}
	w.members = nil
}

// streamPlan is one stream: chunk deltas, the chunk with planted imbalance
// and the trial the sealed stream must equal (the per-event sums).
type streamPlan struct {
	chunks  [][]dmfwire.ChunkEvent
	planted int // chunk index (0-based) whose delta is imbalanced
	want    *perfdmf.Trial
}

// planStream builds eight chunks over a region with six loops. Chunks
// carry balanced deltas (±2%) except the planted one, where loop_b grows
// twentyfold and spreads ±90% and the region's barrier wait mirrors it.
// Each balanced loop holds about a sixth of the total, well below the
// quarter at which the balanced-loop rule fires. Values are whole numbers, so the sums are
// exact.
func planStream(rng *rand.Rand) *streamPlan {
	p := &streamPlan{planted: 3 + rng.Intn(3)}
	loops := []string{"loop_a", "loop_b", "loop_c", "loop_d", "loop_e", "loop_f"}
	names := []string{"main", "region"}
	names = append(names, loops...)
	names = append(names, "main => region")
	for _, l := range loops {
		names = append(names, "main => region => "+l)
	}
	th := streamThreads
	zeros := func() []float64 { return make([]float64, th) }
	exc, inc, calls := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for _, n := range names {
		exc[n], inc[n], calls[n] = zeros(), zeros(), zeros()
	}
	for c := 0; c < streamChunks; c++ {
		ex := map[string][]float64{"region": zeros(), "main": zeros()}
		busy := zeros()
		for _, l := range loops {
			base, spread := 1000.0, 0.02
			if l == "loop_b" && c == p.planted {
				base, spread = 20000, 0.9
			}
			v := zeros()
			for i := range v {
				v[i] = math.Round(base * (1 + spread*(2*rng.Float64()-1)))
				busy[i] += v[i]
			}
			ex[l] = v
		}
		peak := 0.0
		for _, b := range busy {
			peak = math.Max(peak, b)
		}
		in := map[string][]float64{"region": zeros(), "main": zeros()}
		for i := range busy {
			ex["region"][i] = peak + 10 - busy[i]
			ex["main"][i] = float64(5 + rng.Intn(5))
			in["region"][i] = peak + 10
			in["main"][i] = peak + 10 + ex["main"][i]
		}
		for _, l := range loops {
			in[l] = ex[l]
		}
		for _, n := range names {
			flat := n[strings.LastIndex(n, " ")+1:]
			ex[n], in[n] = ex[flat], in[flat]
		}
		var chunk []dmfwire.ChunkEvent
		for _, n := range names {
			cl := zeros()
			for i := range cl {
				cl[i] = 1
				exc[n][i] += ex[n][i]
				inc[n][i] += in[n][i]
				calls[n][i]++
			}
			chunk = append(chunk, dmfwire.ChunkEvent{Name: n, Calls: cl,
				Inclusive: map[string][]float64{perfdmf.TimeMetric: in[n]},
				Exclusive: map[string][]float64{perfdmf.TimeMetric: ex[n]}})
		}
		p.chunks = append(p.chunks, chunk)
	}
	t := perfdmf.NewTrial("ingest", "stream", "s", th)
	t.AddMetric(perfdmf.TimeMetric)
	for _, n := range names {
		e := t.EnsureEvent(n)
		for i := 0; i < th; i++ {
			e.Calls[i] = calls[n][i]
			e.SetValue(perfdmf.TimeMetric, i, inc[n][i], exc[n][i])
		}
	}
	p.want = t
	return p
}

// streamOps opens the stream on the key's first owner with the
// load-balance rules standing, appends every chunk and seals it. No alert
// may fire before the planted chunk, and one must fire on it.
func (w *ingestWL) streamOps() []writeOp {
	var id string
	var standing *localStanding
	ok := false
	t := w.stream.want
	ops := []writeOp{{"stream.open", func(rec *recorder) {
		ok = rec.op("stream.open", func() error {
			info, err := w.owner(t).OpenStream(w.ctx, t.App, t.Experiment, t.Name, streamThreads,
				[]string{perfdmf.TimeMetric}, dmfclient.WithStandingRules("LoadBalanceRules.prl"))
			if err == nil {
				id = info.ID
			}
			return err
		}) == nil
		if ok && w.env.tr != nil {
			rec.after(func() { standing = newLocalStanding(w.env) })
		}
	}}}
	for c, chunk := range w.stream.chunks {
		c, chunk := c, chunk
		ops = append(ops, writeOp{"stream.append", func(rec *recorder) {
			if !ok {
				return
			}
			var ack *dmfwire.AppendAck
			err := rec.op("stream.append", func() (err error) {
				sp := w.env.tr.start("dmfserver.stream_append")
				defer sp.end()
				ack, err = w.owner(t).Append(w.ctx, id, int64(c+1), chunk)
				return err
			})
			if err != nil {
				ok = false
				return
			}
			switch {
			case c < w.stream.planted && ack.Alerts != 0:
				w.env.chk.failf("stream alert before the planted chunk %d (at %d)", w.stream.planted+1, c+1)
			case c == w.stream.planted && ack.Alerts == 0:
				w.env.chk.failf("no stream alert on the planted chunk %d", c+1)
			}
			if w.env.tr != nil {
				rec.after(func() { standing.append(chunk) })
			}
		}})
	}
	ops = append(ops, writeOp{"stream.seal", func(rec *recorder) {
		if !ok {
			return
		}
		err := rec.op("stream.seal", func() error {
			sp := w.env.tr.start("dmfserver.stream_seal")
			defer sp.end()
			_, err := w.owner(t).Seal(w.ctx, id)
			return err
		})
		if err == nil {
			w.mu.Lock()
			w.last[coords(t)] = t
			w.mu.Unlock()
		}
	}})
	return ops
}

// localStanding replays a stream's chunks into an in-process
// dmfserver.StandingDiagnosis after a traced run's timed phase, timing each
// Append.
type localStanding struct {
	tr *tracer
	sd *dmfserver.StandingDiagnosis
}

func newLocalStanding(e *env) *localStanding {
	sd, err := dmfserver.NewStandingDiagnosis(streamThreads, dmfserver.DefaultStreamWindow, diagnosis.LoadBalanceRules)
	if err != nil {
		e.chk.failf("standing diagnosis: %v", err)
		return nil
	}
	return &localStanding{tr: e.tr, sd: sd}
}

func (l *localStanding) append(chunk []dmfwire.ChunkEvent) {
	if l == nil {
		return
	}
	samples := make([]perfdmf.WindowSample, len(chunk))
	for i, ev := range chunk {
		samples[i] = perfdmf.WindowSample{Event: ev.Name, Values: ev.Exclusive[perfdmf.TimeMetric]}
	}
	sp := l.tr.start("rules.standing_append")
	_, err := l.sd.Append(context.Background(), samples)
	sp.end()
	if err != nil {
		l.tr.count("rules.standing_errors", 1)
	}
}

// probe is a file-backed repository the traced ingest run drives after its
// timed phase: the writer's replay saves each reader key it overwrote into
// it while the reader's replay reads each key it read back from it, so the
// repository's own save and read times, and reads that wait on a save, are
// measured at its public calls.
type probe struct {
	repo   *perfdmf.Repository
	fs     *tracedFS
	tr     *tracer
	saving atomic.Bool
}

func newProbe(dir string, tr *tracer) (*probe, error) {
	fs := newTracedFS(osFS(), tr)
	repo, err := perfdmf.OpenRepositoryFS(dir, fs)
	if err != nil {
		return nil, err
	}
	return &probe{repo: repo, fs: fs, tr: tr}, nil
}

func (p *probe) save(t *perfdmf.Trial) {
	io0, fsync0, bytes0 := p.fs.ioNanos.Load(), p.fs.fsyncs.Load(), p.fs.bytes.Load()
	p.saving.Store(true)
	sp := p.tr.start("perfdmf.save")
	err := p.repo.Save(t)
	ms := sp.end()
	p.saving.Store(false)
	if err != nil {
		p.tr.count("perfdmf.save_errors", 1)
		return
	}
	p.tr.observe("perfdmf.save_self", ms-float64(p.fs.ioNanos.Load()-io0)/1e6)
	p.tr.count("perfdmf.saves", 1)
	p.tr.count("perfdmf.save_fsyncs", float64(p.fs.fsyncs.Load()-fsync0))
	p.tr.count("perfdmf.save_bytes", float64(p.fs.bytes.Load()-bytes0))
}

func (p *probe) get(t *perfdmf.Trial) {
	during := p.saving.Load()
	sp := p.tr.start("perfdmf.get")
	_, err := p.repo.GetTrial(t.App, t.Experiment, t.Name)
	ms := sp.end()
	if err == nil && during {
		p.tr.observe("perfdmf.get_during_save", ms)
	}
}
