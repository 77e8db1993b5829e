package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread bound uses. xs is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	q := func(i int) float64 {
		// statistics.quantiles: j, delta = divmod(i*(n+1), 4), clamped.
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := m - 4*j
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), percentile(xs, 50), q(3)
}

// compareDirs summarizes the paired -json results of two revisions: dirs[0]
// holds the base runs and dirs[1] the candidate's, paired by workload, trace
// mode and seed. For every workload and metric it prints each side's median
// and quartiles, the change of the medians, and the share of pairs the
// candidate won. A gain needs at least minPairs pairs, wins in nine tenths
// of them and a median change larger than the base's interquartile range; a
// regression is a median worse than the base's by more than the metric's
// bound.
func compareDirs(dirs []string, w io.Writer) int {
	if len(dirs) != 2 {
		fmt.Fprintln(os.Stderr, "dvaperf: -compare needs two directories: base and candidate")
		return 2
	}
	type key struct {
		workload, metric string
		trace            bool
	}
	type side struct {
		bySeed map[int64]float64
		def    metricOut
	}
	var sides [2]map[key]*side
	for i, dir := range dirs {
		sides[i] = map[key]*side{}
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(paths) == 0 {
			fmt.Fprintf(os.Stderr, "dvaperf: no results in %s\n", dir)
			return 1
		}
		for _, p := range paths {
			res, err := readResult(p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dvaperf: %v\n", err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "dvaperf: %s: run was not correct; comparing it anyway\n", p)
			}
			for _, m := range res.Metrics {
				k := key{res.Workload, m.Name, res.Trace}
				s := sides[i][k]
				if s == nil {
					s = &side{bySeed: map[int64]float64{}, def: m}
					sides[i][k] = s
				}
				s.bySeed[res.Seed] = m.Value
			}
		}
	}
	keys := make([]key, 0, len(sides[0]))
	for k := range sides[0] {
		if sides[1][k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		if keys[i].trace != keys[j].trace {
			return !keys[i].trace
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-12s %-30s %-9s %12s %25s %12s %25s %8s %7s  %s\n",
		"workload", "metric", "unit", "base p50", "base [q1, q3]", "cand p50", "cand [q1, q3]", "change", "wins", "verdict")
	regressions := 0
	for _, k := range keys {
		a, b := sides[0][k], sides[1][k]
		var av, bv []float64
		wins, pairs := 0, 0
		for seed, x := range a.bySeed {
			y, ok := b.bySeed[seed]
			if !ok {
				continue
			}
			av, bv = append(av, x), append(bv, y)
			pairs++
			if (a.def.Better == "lower" && y < x) || (a.def.Better == "higher" && y > x) {
				wins++
			}
		}
		if pairs == 0 {
			continue
		}
		aq1, am, aq3 := quartiles(av)
		bq1, bm, bq3 := quartiles(bv)
		change := 0.0
		if am != 0 {
			change = (bm - am) / am
		}
		worse := change
		if a.def.Better == "higher" {
			worse = -change
		}
		verdict := "no change"
		switch {
		case pairs >= minPairs && float64(wins) >= 0.9*float64(pairs) && abs(bm-am) > aq3-aq1:
			verdict = "gain"
		case a.def.Bound > 0 && worse > a.def.Bound:
			verdict = "REGRESSION"
			regressions++
		case a.def.Bound > 0 && am != 0 && (aq3-aq1)/abs(am) > a.def.Bound:
			verdict = "unresolved (spread above bound)"
		}
		fmt.Fprintf(w, "%-12s %-30s %-9s %12.5g [%10.5g, %10.5g] %12.5g [%10.5g, %10.5g] %+7.1f%% %3d/%-3d  %s\n",
			k.workload, k.metric, a.def.Unit, am, aq1, aq3, bm, bq1, bq3, 100*change, wins, pairs, verdict)
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
