package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"perfknow/internal/perfdmf"
)

// Synthetic trials mimic an OpenMP code: main calls regions, each region
// runs worksharing loops and then waits at a barrier. A loop with planted
// imbalance has per-thread times spread ±90% around a mean six times that
// of a balanced loop, and the region's barrier wait (its exclusive time)
// mirrors it, which is the pattern the captured load-imbalance rule looks
// for (ratio > 0.25, severity > 0.05, inner/outer correlation < -0.9).
// Balanced loops spread ±3%.

// genMetrics are the metrics of synthetic trials: TIME for the
// load-balance analyses, the two counters for the derived
// stalls-per-cycle metric.
var genMetrics = []string{perfdmf.TimeMetric, "CPU_CYCLES", "BACK_END_BUBBLE_ALL"}

// synthShape fixes a synthetic trial's size. Events are main, the regions,
// the loops, and one callpath event per region and per loop.
type synthShape struct {
	threads, regions, loops, planted int
}

// synth is a generated trial and the events it was built to flag.
type synth struct {
	t       *perfdmf.Trial
	planted map[string]bool // loops with planted imbalance
	loops   []string        // every loop
}

func loopName(r, l int) string { return fmt.Sprintf("loop_%d_%d", r, l) }
func regionName(r int) string  { return fmt.Sprintf("region_%d", r) }

// genTrial builds a synthetic trial from rng. The planted loops sit in
// distinct regions.
func genTrial(rng *rand.Rand, app, exp, name string, sh synthShape) *synth {
	t := perfdmf.NewTrial(app, exp, name, sh.threads)
	for _, m := range genMetrics {
		t.AddMetric(m)
	}
	s := &synth{t: t, planted: map[string]bool{}}
	plantedLoop := map[int]int{}
	for _, r := range rng.Perm(sh.regions)[:sh.planted] {
		plantedLoop[r] = rng.Intn(sh.loops)
	}
	th := sh.threads
	mainInc := make([]float64, th)
	mainEv := t.EnsureEvent("main")
	type row struct {
		name     string
		inc, exc []float64
		calls    float64
	}
	var rows []row
	for r := 0; r < sh.regions; r++ {
		sum := make([]float64, th)
		var loopRows []row
		for l := 0; l < sh.loops; l++ {
			mean, amp := 2000+2000*rng.Float64(), 0.03
			if pl, ok := plantedLoop[r]; ok && pl == l {
				mean, amp = mean*6, 0.9
				s.planted[loopName(r, l)] = true
			}
			vals := make([]float64, th)
			for i := range vals {
				vals[i] = math.Round(mean*(1+amp*(2*rng.Float64()-1))*1000) / 1000
				sum[i] += vals[i]
			}
			s.loops = append(s.loops, loopName(r, l))
			loopRows = append(loopRows, row{loopName(r, l), vals, vals, float64(100 + rng.Intn(900))})
		}
		peak := 0.0
		for _, v := range sum {
			peak = math.Max(peak, v)
		}
		wait, inc := make([]float64, th), make([]float64, th)
		for i := range wait {
			wait[i] = math.Round((peak*1.02-sum[i]+50)*1000) / 1000
			inc[i] = wait[i] + sum[i]
			mainInc[i] += inc[i]
		}
		rows = append(rows, row{regionName(r), inc, wait, 50})
		rows = append(rows, loopRows...)
	}
	mainExc := make([]float64, th)
	for i := range mainExc {
		mainExc[i] = math.Round((100+100*rng.Float64())*1000) / 1000
		mainInc[i] += mainExc[i]
	}
	setRow(rng, mainEv, mainInc, mainExc, 1)
	// Flat events first, then their callpaths, as TAU lists them.
	for _, rw := range rows {
		setRow(rng, t.EnsureEvent(rw.name), rw.inc, rw.exc, rw.calls)
	}
	for _, rw := range rows {
		path := "main => " + rw.name
		if strings.HasPrefix(rw.name, "loop_") {
			r := strings.Split(rw.name, "_")[1]
			path = "main => region_" + r + " => " + rw.name
		}
		setRow(rng, t.EnsureEvent(path), rw.inc, rw.exc, rw.calls)
	}
	return s
}

// setRow fills an event's TIME values and derives the two counters from
// them: cycles at about 1.5 GHz and a back-end stall share of 20–50%.
func setRow(rng *rand.Rand, e *perfdmf.Event, inc, exc []float64, calls float64) {
	stall := 0.2 + 0.3*rng.Float64()
	for i := range inc {
		e.Calls[i] = calls
		e.SetValue(perfdmf.TimeMetric, i, inc[i], exc[i])
		ci, ce := math.Round(inc[i]*1500), math.Round(exc[i]*1500)
		e.SetValue("CPU_CYCLES", i, ci, ce)
		e.SetValue("BACK_END_BUBBLE_ALL", i, math.Round(ci*stall), math.Round(ce*stall))
	}
}

// expectFlagged computes, from the trial's own numbers, which loops the
// load-imbalance rule must flag, and errors if that differs from what was
// planted: the generator then failed to build the intended input.
func (s *synth) expectFlagged() error {
	main := s.t.Event("main")
	mainMean := mean(main.Inclusive[perfdmf.TimeMetric])
	for _, l := range s.loops {
		vals := s.t.Event(l).Exclusive[perfdmf.TimeMetric]
		ratio := stddev(vals) / mean(vals)
		sev := mean(vals) / mainMean
		region := "region_" + strings.Split(l, "_")[1]
		corr := pearson(vals, s.t.Event(region).Exclusive[perfdmf.TimeMetric])
		flag := ratio > 0.25 && sev > 0.05 && corr < -0.9
		if flag != s.planted[l] {
			return fmt.Errorf("synthetic trial %s: loop %s ratio %.3f severity %.3f corr %.3f, planted %v",
				s.t.Name, l, ratio, sev, corr, s.planted[l])
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stddev is the population standard deviation.
func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

func pearson(xs, ys []float64) float64 {
	mx, my := mean(xs), mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// near reports whether a and b agree within 1e-9 relative.
func near(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// flatStat is the benchmark's own per-event summary of one metric.
type flatStat struct {
	mean, std, min, max, total float64
}

// ownStats summarizes exclusive values of metric per flat event.
func ownStats(t *perfdmf.Trial, metric string) map[string]flatStat {
	out := map[string]flatStat{}
	for _, e := range t.Events {
		if strings.Contains(e.Name, perfdmf.CallpathSeparator) {
			continue
		}
		v := e.Exclusive[metric]
		if len(v) == 0 {
			continue
		}
		st := flatStat{mean: mean(v), std: stddev(v), min: v[0], max: v[0]}
		for _, x := range v {
			st.total += x
			st.min = math.Min(st.min, x)
			st.max = math.Max(st.max, x)
		}
		out[e.Name] = st
	}
	return out
}

// ownTopN lists the n flat events with the highest mean exclusive metric,
// ties broken by name.
func ownTopN(t *perfdmf.Trial, metric string, n int) []string {
	st := ownStats(t, metric)
	names := make([]string, 0, len(st))
	for k := range st {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := st[names[i]].mean, st[names[j]].mean
		if a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	return names
}

// sameValues reports the first difference between two trials' values of
// every event in want: calls, and inclusive and exclusive of each of want's
// metrics, compared within 1e-9 relative. Structure the formats do not
// carry (event order, groups, metadata) is not compared.
func sameValues(want, got *perfdmf.Trial) error {
	if got.Threads != want.Threads {
		return fmt.Errorf("threads %d, want %d", got.Threads, want.Threads)
	}
	if len(got.Events) != len(want.Events) {
		return fmt.Errorf("%d events, want %d", len(got.Events), len(want.Events))
	}
	for _, we := range want.Events {
		ge := got.Event(we.Name)
		if ge == nil {
			return fmt.Errorf("event %q missing", we.Name)
		}
		for i := range we.Calls {
			if !near(we.Calls[i], ge.Calls[i]) {
				return fmt.Errorf("event %q calls[%d] = %v, want %v", we.Name, i, ge.Calls[i], we.Calls[i])
			}
		}
		for _, m := range want.Metrics {
			for _, side := range []struct {
				name   string
				wv, gv []float64
			}{{"inclusive", we.Inclusive[m], ge.Inclusive[m]}, {"exclusive", we.Exclusive[m], ge.Exclusive[m]}} {
				if len(side.gv) != len(side.wv) {
					return fmt.Errorf("event %q %s %s has %d values, want %d", we.Name, m, side.name, len(side.gv), len(side.wv))
				}
				for i := range side.wv {
					if !near(side.wv[i], side.gv[i]) {
						return fmt.Errorf("event %q %s %s[%d] = %v, want %v", we.Name, m, side.name, i, side.gv[i], side.wv[i])
					}
				}
			}
		}
	}
	return nil
}

// tauFiles renders a trial in the TAU text profile format, one file per
// metric and thread, keyed by the relative path the upload carries. Values
// are written with %g's full precision so a parser reads them back exactly.
func tauFiles(t *perfdmf.Trial) map[string]string {
	files := map[string]string{}
	for _, m := range t.Metrics {
		for th := 0; th < t.Threads; th++ {
			var b strings.Builder
			fmt.Fprintf(&b, "%d templated_functions_MULTI_%s\n", len(t.Events), m)
			b.WriteString("# Name Calls Subrs Excl Incl ProfileCalls\n")
			for _, e := range t.Events {
				fmt.Fprintf(&b, "%q %v 0 %v %v 0 GROUP=\"TAU_USER\"\n",
					e.Name, e.Calls[th], e.Exclusive[m][th], e.Inclusive[m][th])
			}
			files[fmt.Sprintf("MULTI__%s/profile.%d.0.0", m, th)] = b.String()
		}
	}
	return files
}

// gprofProfile is a flat profile the benchmark writes and the values a
// reader of the format must get from it: self seconds become exclusive
// TIME in microseconds, total ms/call × calls the inclusive TIME.
func gprofProfile(rng *rand.Rand, app, exp, name string, funcs int) (string, *perfdmf.Trial) {
	want := perfdmf.NewTrial(app, exp, name, 1)
	want.AddMetric(perfdmf.TimeMetric)
	var b strings.Builder
	b.WriteString("Flat profile:\n\nEach sample counts as 0.01 seconds.\n")
	b.WriteString("  %   cumulative   self              self     total           \n")
	b.WriteString(" time   seconds   seconds    calls  ms/call  ms/call  name    \n")
	cum := 0.0
	for i := 0; i < funcs; i++ {
		centis := 1 + rng.Intn(5000)
		self := float64(centis) / 100
		calls := 1 + rng.Intn(100000)
		selfMs := math.Round(self*1000/float64(calls)*100) / 100
		totalMs := math.Round((self*1000/float64(calls))*(1.5+rng.Float64())*100) / 100
		cum += self
		fn := fmt.Sprintf("func_%03d", i)
		fmt.Fprintf(&b, "%6.2f %10.2f %8.2f %8d %8.2f %8.2f  %s\n", 1.0, cum, self, calls, selfMs, totalMs, fn)
		e := want.EnsureEvent(fn)
		e.Calls[0] = float64(calls)
		excl := self * 1e6
		incl := math.Max(totalMs*float64(calls)*1e3, excl)
		e.SetValue(perfdmf.TimeMetric, 0, incl, excl)
	}
	b.WriteString("\n %         the percentage of the total running time of the\n")
	return b.String(), want
}
