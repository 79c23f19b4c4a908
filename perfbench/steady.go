package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs two sets of n runs of every workload, one process per run,
// seeds 1..n in the first set and 101..100+n in the second. For each
// workload and end-to-end metric it prints each set's median and quartiles,
// the quartile spread as a share of the median, and the shift of the second
// median against the first, next to the metric's bound. It fails when a
// spread or a shift exceeds the bound, when a run reports incorrect output,
// or when the failed-operation shares of the sets differ.
func steady(n int) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, wl := range spec.Workloads {
		var sets [2]map[string][]float64
		var failShare [2][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 1; i <= n; i++ {
				seed := int64(100*s + i)
				rep, err := runChild(self, wl.Name, seed, spec.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
				}
				if !rep.Correct {
					fmt.Printf("%s seed %d: output checks failed\n", wl.Name, seed)
					bad++
				}
				failShare[s] = append(failShare[s], float64(rep.Failed)/float64(rep.Attempted))
				for k, m := range rep.Metrics {
					sets[s][k] = append(sets[s][k], m.Value)
				}
			}
		}
		fmt.Printf("\n%s (%d runs per set, %ds each)\n", wl.Name, n, spec.RunSeconds)
		fmt.Printf("  %-28s %-34s %-34s %7s %7s\n", "metric", "set 1: median [q1, q3] spread", "set 2: median [q1, q3] spread", "shift", "bound")
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) != n || len(b) != n {
				return fmt.Errorf("%s: metric %s missing from some runs", wl.Name, m.Name)
			}
			qa, qb := quartiles(a), quartiles(b)
			sa, sb := (qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1]
			shift := (qb[1] - qa[1]) / qa[1]
			if m.Better == "higher" {
				shift = -shift
			}
			flag := ""
			if math.Max(sa, sb) > m.Bound {
				flag += " SPREAD"
			} else if math.Max(sa, sb) > m.Bound/3 {
				flag += " (spread above a third of the bound)"
			}
			if shift > m.Bound {
				flag += " SHIFT"
			}
			if strings.Contains(flag, "SPREAD") || strings.Contains(flag, "SHIFT") {
				bad++
			}
			fmt.Printf("  %-28s %-34s %-34s %+6.1f%% %6.1f%%%s\n", m.Name+" ("+m.Unit+")",
				fmtSet(qa, sa), fmtSet(qb, sb), 100*shift, 100*m.Bound, flag)
		}
		if fa, fb := sum(failShare[0]), sum(failShare[1]); fa != fb {
			fmt.Printf("  failed-operation share differs between the sets: %v vs %v\n", failShare[0], failShare[1])
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d checks outside their bounds", bad)
	}
	return nil
}

func runChild(self, workload string, seed int64, seconds int) (*report, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = nil
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// quartiles returns the first quartile, the median and the third quartile
// with the method of Python's statistics.quantiles(data, n=4) (exclusive).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}

func fmtSet(q [3]float64, spread float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %.1f%%", q[1], q[0], q[2], 100*spread)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
