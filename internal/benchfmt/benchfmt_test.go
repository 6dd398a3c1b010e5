package benchfmt

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := ParseLine("BenchmarkMonitorSample-8   12345   987.6 ns/op   512 B/op   7 allocs/op")
	if !ok {
		t.Fatal("result line not recognized")
	}
	want := Result{Name: "BenchmarkMonitorSample", Count: 12345, NsPerOp: 987.6, BytesPerOp: 512, AllocsPerOp: 7}
	if r != want {
		t.Fatalf("parsed %+v, want %+v", r, want)
	}
	// The GOMAXPROCS suffix is stripped, interior dashes are not.
	if r, _ := ParseLine("BenchmarkFoo/sub-case-16 10 5 ns/op 0 B/op 0 allocs/op"); r.Name != "BenchmarkFoo/sub-case" {
		t.Errorf("suffix strip: got %q", r.Name)
	}
	if r, _ := ParseLine("BenchmarkBare 10 5 ns/op 0 B/op 0 allocs/op"); r.Name != "BenchmarkBare" {
		t.Errorf("bare name mangled: got %q", r.Name)
	}
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tperfcloud/internal/core\t0.1s",
		"Benchmark only name",
	} {
		if _, ok := ParseLine(line); ok {
			t.Errorf("non-result line parsed as a result: %q", line)
		}
	}
}

func TestMergeKeepsOrderAndReplacesByName(t *testing.T) {
	base := []Result{{Name: "A", NsPerOp: 1}, {Name: "B", NsPerOp: 2}, {Name: "C", NsPerOp: 3}}
	updates := []Result{{Name: "C", NsPerOp: 30}, {Name: "A", NsPerOp: 10}, {Name: "D", NsPerOp: 4}}
	got := Merge(base, updates)
	want := []Result{{Name: "A", NsPerOp: 10}, {Name: "B", NsPerOp: 2}, {Name: "C", NsPerOp: 30}, {Name: "D", NsPerOp: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %+v, want %+v", got, want)
	}
}

func TestReadFileMissingIsEmpty(t *testing.T) {
	got, err := ReadFile(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || got != nil {
		t.Fatalf("missing file: got %v, %v; want nil, nil", got, err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	in := []Result{{Name: "A", Count: 5, NsPerOp: 1.5, BytesPerOp: 8, AllocsPerOp: 1}}
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v, %v", out, err)
	}
}

func TestRegressions(t *testing.T) {
	base := []Result{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "B", NsPerOp: 2000, AllocsPerOp: 3},
		{Name: "C", NsPerOp: 500, AllocsPerOp: 1},
	}
	cur := []Result{
		{Name: "A", NsPerOp: 1040, AllocsPerOp: 0}, // +4%: within tolerance
		{Name: "B", NsPerOp: 2300, AllocsPerOp: 3}, // +15%: over
		{Name: "C", NsPerOp: 490, AllocsPerOp: 2},  // faster but allocs grew
		{Name: "D", NsPerOp: 9999, AllocsPerOp: 9}, // no baseline: ignored
	}
	got := Regressions(base, cur, 5)
	if len(got) != 2 {
		t.Fatalf("Regressions = %v, want 2 messages", got)
	}
	if !strings.Contains(got[0], "B:") || !strings.Contains(got[0], "+15.0%") {
		t.Errorf("ns/op regression message = %q", got[0])
	}
	if !strings.Contains(got[1], "C:") || !strings.Contains(got[1], "2 allocs/op") {
		t.Errorf("allocs regression message = %q", got[1])
	}
	if msgs := Regressions(base, cur[:1], 5); len(msgs) != 0 {
		t.Errorf("clean run flagged: %v", msgs)
	}
}

func TestRatio(t *testing.T) {
	results := []Result{
		{Name: "BenchmarkShardScale/servers=1024", NsPerOp: 1000},
		{Name: "BenchmarkShardScale/servers=10240", NsPerOp: 1500},
		{Name: "BenchmarkActiveServerTickDirty", NsPerOp: 400},
		{Name: "BenchmarkActiveServerTick", NsPerOp: 100},
		{Name: "BenchmarkOther", NsPerOp: 0},
	}
	for _, tc := range []struct {
		name, num, den string
		want           float64 // 0 = want an error
	}{
		{"full names", "BenchmarkShardScale/servers=10240", "BenchmarkShardScale/servers=1024", 1.5},
		{"unique substrings", "servers=10240", "Dirty", 3.75},
		// An exact name wins over the longer name containing it, even
		// when the longer one comes first.
		{"exact beats substring", "BenchmarkActiveServerTick", "BenchmarkActiveServerTickDirty", 0.25},
		{"ambiguous numerator", "servers=1024", "BenchmarkShardScale/servers=1024", 0},
		{"ambiguous denominator", "servers=10240", "ActiveServerTick", 0},
		{"missing numerator", "nope", "servers=10240", 0},
		{"missing denominator", "servers=10240", "nope", 0},
		{"zero denominator", "servers=10240", "Other", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := Ratio(results, tc.num, tc.den)
			if tc.want == 0 {
				if err == nil {
					t.Fatalf("Ratio(%q, %q) = %v, want an error", tc.num, tc.den, v)
				}
				return
			}
			if err != nil || v != tc.want {
				t.Fatalf("Ratio(%q, %q) = %v, %v, want %v", tc.num, tc.den, v, err, tc.want)
			}
		})
	}
}
