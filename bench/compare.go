package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// -compare applies each end-to-end metric's bound to two sets of runs
// (files written with -out: a = parent, b = change), one row per
// metric and workload. Runs of a set are pooled per workload; a set of
// one host run falls back on that run's own batch quartiles.

// Verdicts of a row.
const (
	improved   = "improved"
	within     = "within bound"
	regressed  = "regressed"
	unresolved = "unresolved" // spread wider than the bound
	identical  = "identical"
)

// side is one metric's values over one set's runs of one workload.
type side struct {
	vals        []float64
	q1, med, q3 float64
}

func (s *side) spread() float64 { return ratio(s.q3-s.q1, s.med) }

func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// collect gathers a metric over the untraced runs of a workload.
func collect(recs []result, workload, name string) *side {
	s := &side{}
	var only *row
	for i := range recs {
		r := &recs[i]
		if r.Workload != workload || r.Trace {
			continue
		}
		if v, ok := r.Metrics[name]; ok {
			s.vals = append(s.vals, v.Value)
			if hr, ok := r.HostRows[name]; ok {
				only = &hr
			}
		}
	}
	if len(s.vals) == 0 {
		return nil
	}
	s.q1, s.med, s.q3 = quartiles(s.vals)
	if len(s.vals) == 1 && only != nil {
		s.q1, s.q3 = only.P25, only.P75
	}
	return s
}

// simulatedTime reports whether a metric is a function of the seed
// alone, so that equal seeds must give equal values.
func simulatedTime(name string) bool {
	return strings.HasPrefix(name, "sim_") && name != "sim_steps_per_s"
}

// verdict applies the rule of the choosing-metrics guide: no worse than
// the parent's median by more than the bound; where the spread is wider
// than the bound the row is unresolved, not unchanged, unless every run
// of b reads better than every run of a.
func verdict(m *metric, a, b *side) (string, float64) {
	worse := ratio(b.med-a.med, a.med) // share of a's median by which b is worse
	sign := 1.0
	if m.Better == higher {
		worse, sign = -worse, -1
	}
	allBetter := len(a.vals) > 1 && len(b.vals) > 1
	for _, vb := range b.vals {
		for _, va := range a.vals {
			if sign*(vb-va) >= 0 {
				allBetter = false
			}
		}
	}
	spread := max(a.spread(), b.spread())
	switch {
	case worse == 0 && spread == 0:
		return identical, worse
	case allBetter:
		return improved, worse
	case spread > m.Bound:
		return unresolved, worse
	case worse > m.Bound:
		return regressed, worse
	case worse < 0 && -worse > spread:
		return improved, worse
	default:
		return within, worse
	}
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	var sets [2][]result
	for i, path := range []string{pathA, pathB} {
		recs, err := readRecords(path)
		if err == nil && len(recs) == 0 {
			err = fmt.Errorf("%s: no records", path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sets[i] = recs
	}
	a, b := sets[0], sets[1]
	code := 0
	fmt.Fprintf(w, "%-30s %-6s %14s %14s %8s %7s %6s  %s\n", "metric", "wkld", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for i := range endToEnd {
			m := &endToEnd[i]
			sa, sb := collect(a, wl.Name, m.Name), collect(b, wl.Name, m.Name)
			if sa == nil || sb == nil {
				continue
			}
			v, worse := verdict(m, sa, sb)
			note := ""
			if simulatedTime(m.Name) && sameSeeds(a, b, wl.Name) {
				// Same seeds: simulated time must not have moved at all.
				if slices.Equal(sa.vals, sb.vals) {
					note = " (simulated time: equal on every seed)"
				} else {
					note = " (simulated time: DIFFERS on equal seeds)"
				}
			}
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(w, "%-30s %-6s %14.6g %14.6g %+7.2f%% %6.2f%% %5.0f%%  %s%s\n",
				m.Name, wl.Name, sa.med, sb.med, 100*worse, 100*max(sa.spread(), sb.spread()), 100*m.Bound, v, note)
		}
	}
	for _, set := range sets {
		for i := range set {
			if r := &set[i]; !r.Correct {
				fmt.Fprintf(w, "run %s seed %d: %d of %d ops failed %v\n", r.Workload, r.Seed, r.Failed, r.Attempted, r.Problems)
				code = 1
			}
		}
	}
	return code
}

// sameSeeds reports whether both sets ran a workload on the same seeds
// in the same order.
func sameSeeds(a, b []result, workload string) bool {
	seeds := func(recs []result) (out []uint64) {
		for i := range recs {
			if recs[i].Workload == workload && !recs[i].Trace {
				out = append(out, recs[i].Seed)
			}
		}
		return out
	}
	return slices.Equal(seeds(a), seeds(b))
}
