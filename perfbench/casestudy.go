package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"perfknow/internal/apps/genidlest"
	"perfknow/internal/apps/msa"
	"perfknow/internal/core"
	"perfknow/internal/diagnosis"
	"perfknow/internal/experiments"
	"perfknow/internal/machine"
	"perfknow/internal/openuh"
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
)

// stencilSource is the program of the power case study, compiled at
// -O0..-O3: a time-stepped parallel sweep over a first-touched grid plus a
// serial residual.
const stencilSource = `program stencil
proc main() {
    loop timestep 20 {
        call sweep
        call residual
    }
}
proc sweep() {
    parallel loop rows 128 schedule(static) {
        compute fp=2000 int=500 loads=800 stores=400 branches=64 \
                region=grid off=0 len=4194304 reuse=8 dep=0.3 firsttouch
    }
}
proc residual() {
    compute fp=128 int=256 loads=128 dep=0.6
}
`

var optLevels = []openuh.OptLevel{openuh.O0, openuh.O1, openuh.O2, openuh.O3}

// casestudyWL runs the paper's three case studies in process, with no
// HTTP: each step simulates a run, stores the trial in a file-backed
// repository and diagnoses it with the captured script and rules in a
// core.Session. A round also regenerates the Fig. 4(a), Fig. 5(b) and
// Table I artifacts and checks them against the bands internal/experiments
// holds.
type casestudyWL struct {
	env      *env
	repo     *perfdmf.Repository
	fs       *tracedFS // traced runs only
	rulesDir string
	trials   map[string]*perfdmf.Trial // coordinates → last trial stored
	ops      []caseOp
	preload  []func() error // the simulate-and-store steps of a round
	findings map[string]int // genidlest variant → rules fired
}

type caseOp struct {
	kind string
	do   func() error
}

func newCasestudy(e *env) (workload, error) {
	w := &casestudyWL{env: e, trials: map[string]*perfdmf.Trial{}, findings: map[string]int{}}
	assets := filepath.Join(e.dir, "assets")
	if err := diagnosis.WriteAssets(assets); err != nil {
		return nil, err
	}
	w.rulesDir = filepath.Join(assets, "rules")
	fs := e.fs()
	if tf, ok := fs.(*tracedFS); ok {
		w.fs = tf
	}
	repo, err := perfdmf.OpenRepositoryFS(filepath.Join(e.dir, "repo"), fs)
	if err != nil {
		return nil, err
	}
	w.repo = repo
	w.ops = w.round()
	// Preload the live set: every simulated trial of a round, stored once.
	for _, simulate := range w.preload {
		if err := simulate(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// round lists one round of eight operations, each one case study step from
// simulation to diagnosis: MSA under the static and the dynamic,1 schedule,
// GenIDLEST 45rib unoptimized and optimized, the power study (compile and
// run at each level, then diagnose), and the three artifacts.
func (w *casestudyWL) round() []caseOp {
	altix := machine.Altix(16, 2)
	var groups []caseOp
	for _, v := range []struct {
		name  string
		sched sim.Schedule
	}{{"static", sim.Schedule{Kind: sim.StaticSched}}, {"dynamic_1", sim.Schedule{Kind: sim.DynamicSched, Chunk: 1}},
		{"dynamic_4", sim.Schedule{Kind: sim.DynamicSched, Chunk: 4}}} {
		v := v
		simulate := func() error {
			sp := w.env.tr.start("apps.msa_run")
			t, err := msa.Run(altix, msa.DefaultParams(16, v.sched))
			w.simulated(sp, t)
			if err != nil {
				return err
			}
			t.Experiment, t.Name = "fig4", v.name
			return w.save(t)
		}
		w.preload = append(w.preload, simulate)
		groups = append(groups, caseOp{"msa." + v.name, func() error {
			if err := simulate(); err != nil {
				return err
			}
			s, out, err := w.script("load_balance", "MSAP", "fig4", v.name)
			if err != nil {
				return err
			}
			if fired := countRule(s, "Load Imbalance") > 0; fired != (v.name == "static") {
				w.env.chk.failf("MSA %s: load imbalance fired=%v (Fig. 4: only static is imbalanced)\n%s", v.name, fired, out)
			}
			return nil
		}})
	}

	for _, v := range []struct {
		name string
		opt  bool
	}{{"unopt_8", false}, {"opt_8", true}} {
		v := v
		simulate := func() error {
			cfg := genidlest.DefaultConfig(genidlest.Rib45(), genidlest.OpenMP, 8)
			cfg.Optimized = v.opt
			sp := w.env.tr.start("apps.genidlest_run.t8")
			t, err := genidlest.Run(altix, cfg)
			w.simulated(sp, t)
			if err != nil {
				return err
			}
			t.Experiment, t.Name = "locality", v.name
			return w.save(t)
		}
		w.preload = append(w.preload, simulate)
		groups = append(groups, caseOp{"genidlest." + v.name, func() error {
			if err := simulate(); err != nil {
				return err
			}
			s, out, err := w.script("memory_analysis", "Fluid Dynamic", "locality", v.name)
			if err != nil {
				return err
			}
			n := len(s.LastResult().Fired)
			w.findings[v.name] = n
			if !v.opt && countRule(s, "Poor Data Locality") == 0 {
				w.env.chk.failf("GenIDLEST unoptimized: no locality diagnosis\n%s", out)
			}
			return nil
		}})
	}

	for _, lvl := range optLevels {
		lvl := lvl
		w.preload = append(w.preload, func() error {
			prog, err := openuh.ParseSource(stencilSource)
			if err != nil {
				return err
			}
			sp := w.env.tr.start("openuh.compile." + levelName(lvl))
			ex, _, err := openuh.Compile(prog, lvl, openuh.DefaultInstrumentation(), nil)
			sp.end()
			if err != nil {
				return err
			}
			eng := sim.NewEngine(machine.New(altix), sim.Options{Threads: 8, CallpathDepth: 3})
			sp = w.env.tr.start("apps.stencil_run")
			t, err := ex.Run(eng, "stencil", "power", levelName(lvl))
			w.simulated(sp, t)
			if err != nil {
				return err
			}
			return w.save(t)
		})
	}
	powerSim := w.preload[len(w.preload)-len(optLevels):]
	groups = append(groups, caseOp{"power", func() error {
		for _, simulate := range powerSim {
			if err := simulate(); err != nil {
				return err
			}
		}
		s, out, err := w.script("power_levels", "stencil", "power")
		if err != nil {
			return err
		}
		if len(s.LastResult().Recommendations) == 0 {
			w.env.chk.failf("power_levels: no recommendation\n%s", out)
		}
		return nil
	}})

	for _, id := range []string{"F4a", "F5b", "T1"} {
		id := id
		groups = append(groups, caseOp{"artifact." + id, func() error {
			sp := w.env.tr.start("apps.artifact_" + id)
			res, err := experiments.Run(id)
			sp.end()
			if err != nil {
				return err
			}
			for _, c := range res.Checks {
				if !c.OK() {
					w.env.chk.failf("%s: %s = %v outside [%v, %v]", id, c.Name, c.Measured, c.Lo, c.Hi)
				}
			}
			return nil
		}})
	}
	return groups
}

func levelName(l openuh.OptLevel) string { return fmt.Sprintf("O%d", int(l)) }

// simulated closes a simulator span and counts the simulated cycles: the
// sum over threads of main's inclusive CPU_CYCLES.
func (w *casestudyWL) simulated(sp *span, t *perfdmf.Trial) {
	ms := sp.end()
	if w.env.tr == nil || t == nil {
		return
	}
	if m := t.MainEvent("CPU_CYCLES"); m != nil {
		w.env.tr.count("sim.cycles", perfdmf.Sum(m.Inclusive["CPU_CYCLES"]))
		w.env.tr.count("sim.ms", ms)
	}
}

func (w *casestudyWL) save(t *perfdmf.Trial) error {
	var io0 int64
	if w.fs != nil {
		io0 = w.fs.ioNanos.Load()
	}
	sp := w.env.tr.start("perfdmf.save")
	err := w.repo.Save(t)
	ms := sp.end()
	if err != nil {
		return err
	}
	if w.fs != nil {
		w.env.tr.observe("perfdmf.save_self", ms-float64(w.fs.ioNanos.Load()-io0)/1e6)
	}
	w.trials[coords(t)] = t
	return nil
}

// script runs a captured script over the repository in a fresh session;
// the script must have run its rules.
func (w *casestudyWL) script(name string, args ...string) (*core.Session, string, error) {
	r, err := runScript(w.env.tr, w.repo, w.rulesDir, name, args)
	if err != nil {
		return nil, "", err
	}
	if r.s.LastResult() == nil {
		return nil, "", fmt.Errorf("%s %v: rules never ran", name, args)
	}
	return r.s, r.out, nil
}

func countRule(s *core.Session, rule string) int {
	n := 0
	for _, f := range s.LastResult().Fired {
		if f == rule {
			n++
		}
	}
	return n
}

func (w *casestudyWL) clients() []func(*recorder, *rand.Rand) {
	return []func(*recorder, *rand.Rand){func(rec *recorder, rng *rand.Rand) {
		for _, op := range shuffled(rng, w.ops) {
			rec.op(op.kind, op.do)
		}
	}}
}

// finish compares the GenIDLEST pair: the optimized run must raise fewer
// findings than the unoptimized one. Every other step checked its own
// output.
func (w *casestudyWL) finish(chk *checker) {
	if u, o := w.findings["unopt_8"], w.findings["opt_8"]; o >= u {
		chk.failf("GenIDLEST optimized raised %d findings, unoptimized %d", o, u)
	}
}

func (w *casestudyWL) storage() (int64, int64, error) {
	disk, err := dirBytes(filepath.Join(w.env.dir, "repo"))
	if err != nil {
		return 0, 0, err
	}
	input, err := jsonBytes(w.trials)
	return disk, input, err
}

func (w *casestudyWL) close() {}
