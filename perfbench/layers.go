package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// tracedRun replays every workload's seeded operation sequence twice, each
// time on a freshly built state: untraced, then with spans around every
// call into a layer and the timing and counting wrappers installed at the
// program's public seams (vfs.FS, the clients' http.RoundTripper). Each
// replay gets an eighth of the run length. The in-process replays of the
// traced phase run after its deadline. The named workload goes first. The
// report holds every per-layer metric and, per workload, the tracing
// slowdown: untraced over traced throughput, spans and wrappers alone.
func tracedRun(root, name string, seed int64, seconds float64) (*report, error) {
	order := []string{name}
	for _, w := range workloadOrder {
		if w != name {
			order = append(order, w)
		}
	}
	chk := &checker{}
	rep := &report{Metrics: map[string]metric{}}
	tracers := map[string]*tracer{}
	for _, wl := range order {
		var phases [2]phase
		var tr *tracer
		for i, traced := range []bool{false, true} {
			e := &env{dir: filepath.Join(root, fmt.Sprintf("%s-%d", wl, i)), seed: seed, chk: chk}
			if traced {
				tr = newTracer()
				e.tr = tr
			}
			w, err := workloads[wl](e)
			if err != nil {
				return nil, fmt.Errorf("%s setup: %w", wl, err)
			}
			phases[i] = measure(w, seed, seconds/8, e.tr)
			replay(phases[i].later)
			w.finish(chk)
			w.close()
			rep.Attempted += phases[i].attempted
			rep.Failed += phases[i].failed
		}
		tracers[wl] = tr
		for k, v := range layerMetrics(wl, tr, phases[0], phases[1]) {
			rep.Metrics[k] = v
		}
	}
	rep.Correct = chk.ok()
	chk.report(os.Stderr)
	path := filepath.Join(".bench_build", fmt.Sprintf("perfbench-trace-%s-%d.json", name, seed))
	if err := writeSpans(path, tracers); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(os.Stderr, "perfbench:   %-40s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	return rep, nil
}

// layerMetrics turns one workload's traced replay into its per-layer
// metrics. Times are medians per call; "_per_" metrics are ratios of
// counts taken at the same boundaries.
func layerMetrics(wl string, tr *tracer, plain, traced phase) map[string]metric {
	ms := func(span string) metric { return metric{tr.median(span), "ms"} }
	per := func(num, den float64, unit string) metric {
		if den == 0 {
			return metric{0, unit}
		}
		return metric{num / den, unit}
	}
	m := map[string]metric{
		"runtime.gc_cycles_per_op." + wl: per(plain.gcCycles, float64(plain.attempted), "count"),
		"trace.slowdown." + wl:           per(plain.opsPerS, traced.opsPerS, "ratio"),
	}
	switch wl {
	case "diagnose":
		m["dmfserver.diagnose_ms"] = ms("dmfserver.diagnose")
		m["dmfserver.analyze_ms"] = ms("dmfserver.analyze")
		m["dmfserver.overhead_ms"] = ms("dmfserver.overhead")
		m["dmfwire.bytes_per_op.diagnose"] = per(tr.counter("dmfwire.bytes"), float64(traced.attempted), "B")
		m["core.session_setup_ms"] = ms("core.session_setup")
		m["script.run_ms"] = ms("script.run")
		m["script.steps_per_op"] = per(tr.counter("script.steps"), tr.counter("script.runs"), "count")
		m["rules.load_ms"] = ms("rules.load")
		m["rules.run_ms"] = ms("rules.run")
		m["rules.facts_per_op"] = per(tr.counter("rules.facts"), tr.counter("rules.runs"), "count")
		m["rules.firings_per_op"] = per(tr.counter("rules.firings"), tr.counter("rules.runs"), "count")
		m["diagnosis.facts_ms"] = ms("diagnosis.facts")
		for _, op := range []struct{ span, name string }{
			{"derive", "derive"}, {"stats", "stats"}, {"loadbalance", "loadbalance"}, {"topn", "topn"}, {"cluster", "kmeans"},
		} {
			for _, size := range []string{"small", "large"} {
				m["analysis."+op.name+"_ms."+size] = ms("analysis." + op.span + "." + size)
			}
		}
	case "ingest":
		m["dmfserver.upload_ms.json"] = ms("http.upload.json")
		m["dmfserver.upload_ms.tau"] = ms("dmfserver.upload.tau")
		m["dmfserver.upload_ms.gprof"] = ms("dmfserver.upload.gprof")
		m["dmfserver.stream_append_ms"] = ms("dmfserver.stream_append")
		m["dmfserver.stream_seal_ms"] = ms("dmfserver.stream_seal")
		m["dmfwire.bytes_per_op.ingest"] = per(tr.counter("dmfwire.bytes"), float64(traced.attempted), "B")
		m["rules.standing_append_ms"] = ms("rules.standing_append")
		m["perfdmf.save_ms"] = ms("perfdmf.save")
		m["perfdmf.save_self_ms"] = ms("perfdmf.save_self")
		m["perfdmf.get_ms"] = ms("perfdmf.get")
		m["perfdmf.get_during_save_ms"] = ms("perfdmf.get_during_save")
		m["perfdmf.bytes_written_per_save"] = per(tr.counter("perfdmf.save_bytes"), tr.counter("perfdmf.saves"), "B")
		m["vfs.durable_write_ms"] = ms("vfs.durable_write")
		m["vfs.fsyncs_per_save"] = per(tr.counter("perfdmf.save_fsyncs"), tr.counter("perfdmf.saves"), "count")
		m["cluster.save_ms"] = ms("cluster.save")
		m["cluster.get_ms"] = ms("cluster.get")
		m["cluster.delete_ms"] = ms("cluster.delete")
		m["cluster.rebalance_ms"] = ms("cluster.rebalance")
		m["cluster.replica_writes_per_save"] = per(tr.counter("cluster.replica_writes"), tr.n("cluster.save"), "count")
	case "casestudy":
		m["apps.msa_run_ms"] = ms("apps.msa_run")
		m["apps.genidlest_run_ms.t8"] = ms("apps.genidlest_run.t8")
		m["apps.stencil_run_ms"] = ms("apps.stencil_run")
		m["apps.f5b_sweep_ms"] = ms("apps.artifact_F5b")
		m["sim.mcycles_per_s"] = per(tr.counter("sim.cycles")/1e6, tr.counter("sim.ms")/1e3, "Mcycles/s")
		for _, lvl := range optLevels {
			m["openuh.compile_ms."+levelName(lvl)] = ms("openuh.compile." + levelName(lvl))
		}
		m["perfdmf.save_ms.casestudy"] = ms("perfdmf.save")
		m["perfdmf.save_self_ms.casestudy"] = ms("perfdmf.save_self")
		m["script.run_ms.casestudy"] = ms("script.run")
	}
	return m
}
