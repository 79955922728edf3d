package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchDoc is the part of BENCHMARK.json the comparison needs.
type benchDoc struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRuns reads every saved untraced run in dir — a file holding one
// run's standard output — and groups the results by workload, in file-name
// order.
func readRuns(dir string) (map[string][]result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	runs := make(map[string][]result)
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var (
			header map[string]string
			last   []byte
		)
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			if rest, ok := strings.CutPrefix(string(line), "# bench "); ok {
				header = make(map[string]string)
				for _, kv := range strings.Fields(rest) {
					if k, v, ok := strings.Cut(kv, "="); ok {
						header[k] = v
					}
				}
			}
			last = append(last[:0], line...)
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if header == nil || header["trace"] != "0" {
			continue // not an untraced run's output
		}
		var r result
		if err := json.Unmarshal(last, &r); err != nil {
			return nil, fmt.Errorf("%s: last line: %w", e.Name(), err)
		}
		runs[header["workload"]] = append(runs[header["workload"]], r)
	}
	return runs, nil
}

// compareDirs prints, for every workload and end-to-end metric, each
// side's median and quartiles and a verdict, reading the bounds from the
// benchmark description. The verdict follows the measuring rules the
// benchmark is built for: a change is worse when its median is worse than
// the base's by more than the bound; unresolved when either side's spread
// (quartile distance over median) exceeds the bound, unless every run of
// one side beats every run of the other; better when it wins at least nine
// tenths of the paired runs and its median moved by more than the base's
// quartile distance; unchanged otherwise. It reports whether any verdict
// is worse.
func compareDirs(benchPath, dirA, dirB string, w io.Writer) (bool, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readRuns(dirA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(dirB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range a {
		if len(b[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no workload has untraced runs in both %s and %s", dirA, dirB)
	}
	fmt.Fprintf(w, "%-16s %-16s %-6s %4s %28s %4s %28s %8s  %s\n", "workload", "metric", "unit",
		"n(A)", "A median [q1, q3]", "n(B)", "B median [q1, q3]", "change", "verdict")
	worse := false
	for _, name := range names {
		for _, m := range doc.EndToEnd {
			va, vb := values(a[name], m.Name), values(b[name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, m.Better == "higher", m.Bound)
			worse = worse || v == "worse"
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "%-16s %-16s %-6s %4d %28s %4d %28s %+7.2f%%  %s\n", name, m.Name, m.Unit,
				len(va), summary(va), len(vb), summary(vb), 100*ratio(mb-ma, ma), v)
		}
	}
	return worse, nil
}

func values(runs []result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q1, q3)
}

func verdict(a, b []float64, higher bool, bound float64) string {
	// gain is how much better b reads than a, as a share of a.
	gain := func(x, y float64) float64 {
		if higher {
			return ratio(y-x, x)
		}
		return ratio(x-y, x)
	}
	ma, mb := median(a), median(b)
	if spread(a) > bound || spread(b) > bound {
		switch {
		case allBetter(a, b, higher):
			return "better"
		case allBetter(b, a, higher):
			return "worse"
		}
		return "unresolved"
	}
	if gain(ma, mb) < -bound {
		return "worse"
	}
	q1, q3 := quartiles(a)
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if gain(a[i], b[i]) > 0 {
			wins++
		}
	}
	if math.Abs(mb-ma) > q3-q1 && gain(ma, mb) > 0 && 10*wins >= 9*pairs {
		return "better"
	}
	return "unchanged"
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(a, b []float64, higher bool) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// spread is the quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

// quartiles are the first and third quartiles by the method of Python's
// statistics.quantiles(v, n=4) (its default, "exclusive"); a single value
// is its own quartiles.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
