// Package benchfmt is the shared schema for the repo's benchmark JSON
// artifacts (BENCH_hotloop.json, BENCH_suite.json): parsing of
// `go test -bench` result lines, stable name-keyed merging so repeated
// runs refresh rather than clobber a file, and delta formatting for
// comparing a run against a committed baseline.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark measurement. NsPerOp is always set; BytesPerOp
// and AllocsPerOp only when the run used -benchmem. Wall-clock suite
// timings reuse the same shape with Count = 1 and NsPerOp = elapsed
// nanoseconds.
type Result struct {
	Name        string  `json:"name"`
	Count       int64   `json:"count"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// ParseLine parses one benchmark result line of the form
//
//	BenchmarkName-8   12345   987.6 ns/op   512 B/op   7 allocs/op
//
// and reports whether the line was a benchmark result at all. The
// trailing -N GOMAXPROCS suffix is stripped from the name so results
// compare against baselines recorded on machines with different core
// counts.
func ParseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	count, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: stripProcs(fields[0]), Count: count}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		}
	}
	return r, true
}

// stripProcs removes a trailing -N GOMAXPROCS suffix from a benchmark
// name ("BenchmarkFoo-8" -> "BenchmarkFoo"); sub-benchmark slashes and
// interior dashes are untouched.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Merge folds updates into base by benchmark name: an update replaces the
// base entry of the same name in place (keeping the file's order stable
// across runs, so diffs stay readable), and names new to base append in
// their given order.
func Merge(base, updates []Result) []Result {
	index := make(map[string]int, len(base))
	merged := make([]Result, len(base))
	copy(merged, base)
	for i, r := range merged {
		index[r.Name] = i
	}
	for _, r := range updates {
		if i, ok := index[r.Name]; ok {
			merged[i] = r
			continue
		}
		index[r.Name] = len(merged)
		merged = append(merged, r)
	}
	return merged
}

// ReadFile loads a benchmark JSON array. A missing file is not an error:
// it returns (nil, nil) so callers can treat it as an empty baseline.
func ReadFile(path string) ([]Result, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var results []Result
	if err := json.Unmarshal(buf, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// WriteFile writes the results as an indented JSON array.
func WriteFile(path string, results []Result) error {
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Regressions compares cur against base and returns one message per
// benchmark that regressed: ns/op more than maxPct percent above the
// baseline, or an allocs/op increase (allocation regressions are never
// within tolerance — the hot loops are supposed to be zero- or
// fixed-alloc). Benchmarks absent from the baseline are ignored.
func Regressions(base, cur []Result, maxPct float64) []string {
	byName := make(map[string]Result, len(base))
	for _, r := range base {
		byName[r.Name] = r
	}
	var out []string
	for _, r := range cur {
		b, ok := byName[r.Name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 {
			pct := (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
			if pct > maxPct {
				out = append(out, fmt.Sprintf("%s: %.6g ns/op is %+.1f%% vs baseline %.6g (max %+.1f%%)",
					r.Name, r.NsPerOp, pct, b.NsPerOp, maxPct))
			}
		}
		if r.AllocsPerOp > b.AllocsPerOp {
			out = append(out, fmt.Sprintf("%s: %d allocs/op vs baseline %d",
				r.Name, r.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return out
}

// Ratio returns ns/op(num) / ns/op(den). Each operand names one result:
// the result with exactly that name, else the only result whose name
// contains it; a substring matching several results is an error, so
// "ActiveServerTick" cannot silently pick "ActiveServerTickDirty". It
// backs within-run gates such as "the 10x-larger configuration may cost
// at most Kx per op": the two operands come from the same run, so the
// check is machine-independent in a way absolute-baseline gates are
// not. Errors name a missing or ambiguous operand or a zero denominator.
func Ratio(results []Result, num, den string) (float64, error) {
	find := func(sub string) (Result, error) {
		var hits []string
		var hit Result
		for _, r := range results {
			if r.Name == sub {
				return r, nil
			}
			if strings.Contains(r.Name, sub) {
				hits = append(hits, r.Name)
				hit = r
			}
		}
		switch len(hits) {
		case 0:
			return Result{}, fmt.Errorf("no benchmark matching %q", sub)
		case 1:
			return hit, nil
		}
		return Result{}, fmt.Errorf("%q matches several benchmarks: %s", sub, strings.Join(hits, ", "))
	}
	n, err := find(num)
	if err != nil {
		return 0, err
	}
	d, err := find(den)
	if err != nil {
		return 0, err
	}
	if d.NsPerOp <= 0 {
		return 0, fmt.Errorf("%s: non-positive ns/op %g as denominator", d.Name, d.NsPerOp)
	}
	return n.NsPerOp / d.NsPerOp, nil
}

// FormatDelta renders a one-line comparison of cur against base, e.g.
//
//	BenchmarkFoo-8  1234 ns/op  (baseline 2468, -50.0%)  7 allocs/op (=)
//
// Positive percentages mean cur is slower than the baseline.
func FormatDelta(base, cur Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %.6g ns/op", cur.Name, cur.NsPerOp)
	if base.NsPerOp > 0 {
		pct := (cur.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
		fmt.Fprintf(&b, "  (baseline %.6g, %+.1f%%)", base.NsPerOp, pct)
	} else {
		b.WriteString("  (no baseline)")
	}
	if cur.AllocsPerOp == base.AllocsPerOp {
		fmt.Fprintf(&b, "  %d allocs/op (=)", cur.AllocsPerOp)
	} else {
		fmt.Fprintf(&b, "  %d allocs/op (baseline %d)", cur.AllocsPerOp, base.AllocsPerOp)
	}
	return b.String()
}
