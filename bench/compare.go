package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// side is one side of a comparison: for every workload and end-to-end
// metric, the summary each of its runs reported.
type side map[string]map[string][]summary

func loadSide(list string) (side, error) {
	s := side{}
	for _, path := range strings.Split(list, ",") {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(buf, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Results {
			if r.Trace {
				continue
			}
			if !r.Correct {
				return nil, fmt.Errorf("%s: workload %s failed %d of %d; its numbers are not comparable", path, r.Workload, r.Failed, r.Attempted)
			}
			if s[r.Workload] == nil {
				s[r.Workload] = map[string][]summary{}
			}
			for name, m := range r.Metrics {
				s[r.Workload][name] = append(s[r.Workload][name], m)
			}
		}
	}
	return s, nil
}

// centre and noise reduce a metric's runs to one value and its
// run-to-run spread as a share of that value. With four or more runs the
// spread is the quartile distance of the run medians — the statistic the
// benchmark driver uses. With fewer it is estimated from the first run's
// own passes: the quartile distance of n passes shrinks by √n for their
// median.
func centre(runs []summary) float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.Median
	}
	return median(v)
}

func noise(runs []summary) float64 {
	if len(runs) >= 4 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = r.Median
		}
		return spread(v)
	}
	r := runs[0]
	if r.Median == 0 {
		return 0
	}
	return math.Abs((r.Q3-r.Q1)/r.Median) / math.Sqrt(float64(r.N))
}

// compareFiles prints, per workload, one row per end-to-end metric: both
// medians with quartiles, the ratio with its base, the bound and a
// verdict — ok, regressed (worse than the bound), or unresolved (a
// side's spread is wider than the bound, so the bound cannot be judged).
// It returns non-zero on anything but ok.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	base, err := loadSide(a)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cand, err := loadSide(b)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return compareSides(base, cand, stdout)
}

func compareSides(base, cand side, w io.Writer) int {
	status := 0
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %s\n", wl.Name)
		for _, d := range endToEnd {
			ra, rb := base[wl.Name][d.Name], cand[wl.Name][d.Name]
			if len(ra) == 0 || len(rb) == 0 {
				fmt.Fprintf(w, "  %-22s missing on one side                                   unresolved\n", d.Name)
				status = 1
				continue
			}
			ca, cb := centre(ra), centre(rb)
			worse := (cb - ca) / ca
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case math.Max(noise(ra), noise(rb)) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
			}
			if verdict != "ok" {
				status = 1
			}
			fmt.Fprintf(w, "  %-22s %-10s A=%-12.6g [%.6g, %.6g] B=%-12.6g [%.6g, %.6g] B/A=%.4f (base %.6g) spread A=%.4f B=%.4f bound=%.2f %s\n",
				d.Name, d.Unit, ca, ra[0].Q1, ra[0].Q3, cb, rb[0].Q1, rb[0].Q3, cb/ca, ca, noise(ra), noise(rb), d.Bound, verdict)
		}
	}
	return status
}
