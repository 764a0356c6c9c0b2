package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// record is one run as -record appends it: which workload and seed, and
// the result line the run printed.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// judge applies the gate to one end-to-end metric. base and head are in
// run order, so base[i] and head[i] are pair i of alternating runs.
//
//   - "gain": head wins at least 9 of every 10 pairs (at least ten
//     pairs, ties counting for neither) and the medians differ by more
//     than the base's interquartile range, in head's favour;
//   - "better": every head run beats every base run;
//   - "unresolved": either side's spread (IQR over median) exceeds the
//     bound, so a change within it cannot be told from noise;
//   - "regression": head's median is worse than base's by more than the
//     bound;
//   - "same": otherwise.
func judge(d metricDef, base, head []float64) string {
	better := func(x, y float64) bool {
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	b, h := summarize(base), summarize(head)
	n := min(len(base), len(head))
	wins := 0
	for i := 0; i < n; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	bs, hs := sortedCopy(base), sortedCopy(head)
	worstHead, bestBase := hs[len(hs)-1], bs[0]
	if d.Better == "higher" {
		worstHead, bestBase = hs[0], bs[len(bs)-1]
	}
	worse := (h.Median - b.Median) / math.Abs(b.Median)
	if d.Better == "higher" {
		worse = -worse
	}
	spread := func(s summary) float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }
	switch {
	case n >= 10 && 10*wins >= 9*n && better(h.Median, b.Median) && math.Abs(h.Median-b.Median) > b.Q3-b.Q1:
		return "gain"
	case better(worstHead, bestBase):
		return "better"
	case spread(b) > d.Bound || spread(h) > d.Bound:
		return "unresolved"
	case worse > d.Bound:
		return "regression"
	}
	return "same"
}

// compareFiles prints one row per (workload, end-to-end metric) for two
// record files and reports whether head passes: no regression and no
// rise in the failed share of operations.
func compareFiles(basePath, headPath string, w io.Writer) (bool, error) {
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return false, err
	}
	type side struct {
		vals              map[string][]float64
		attempted, failed int
	}
	collect := func(recs []record) (map[string]*side, []string) {
		out := make(map[string]*side)
		var order []string
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			s, ok := out[r.Workload]
			if !ok {
				s = &side{vals: make(map[string][]float64)}
				out[r.Workload] = s
				order = append(order, r.Workload)
			}
			s.attempted += r.Attempted
			s.failed += r.Failed
			for name, m := range r.Metrics {
				s.vals[name] = append(s.vals[name], m.Value)
			}
		}
		return out, order
	}
	bs, order := collect(base)
	hs, _ := collect(head)

	pass := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\tn\tverdict")
	for _, wl := range order {
		b, h := bs[wl], hs[wl]
		if h == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\tmissing from head\n", wl)
			pass = false
			continue
		}
		for _, d := range endToEnd {
			bv, hv := b.vals[d.Name], h.vals[d.Name]
			if len(bv) == 0 || len(hv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\tmissing\n", wl, d.Name)
				pass = false
				continue
			}
			v := judge(d, bv, hv)
			if v == "regression" {
				pass = false
			}
			bsum, hsum := summarize(bv), summarize(hv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n", wl, d.Name,
				bsum.Median, bsum.Q1, bsum.Q3, hsum.Median, hsum.Q1, hsum.Q3, len(bv), len(hv), v)
		}
		bf := float64(b.failed) / float64(max(b.attempted, 1))
		hf := float64(h.failed) / float64(max(h.attempted, 1))
		verdict := "same"
		if hf > bf {
			verdict = "rose"
			pass = false
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.4g (%d/%d)\t%.4g (%d/%d)\t-\t%s\n", wl, bf, b.failed, b.attempted, hf, h.failed, h.attempted, verdict)
	}
	return pass, tw.Flush()
}
