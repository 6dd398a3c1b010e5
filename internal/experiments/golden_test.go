package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"perfcloud/internal/trace"
)

// updateGolden rewrites testdata/golden_digests.json from the current code
// instead of checking against it.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json")

const goldenFile = "testdata/golden_digests.json"

// goldenSeeds are the fixed seeds every config is pinned at.
var goldenSeeds = []int64{1, 42}

// goldenDigests renders every quick config at one seed — the tables
// `perfbench -fig all -quick -seed N` prints, Figs 1-12 plus the
// ablations and extensions — and returns the sha256 of each rendered
// table, keyed "seed=N/name". The Fig 11 and Fig 12 sizes mirror
// perfbench's -quick settings.
func goldenDigests(seed int64) map[string]string {
	out := map[string]string{}
	add := func(name string, t *trace.Table) {
		sum := sha256.Sum256([]byte(t.String()))
		out[fmt.Sprintf("seed=%d/%s", seed, name)] = hex.EncodeToString(sum[:])
	}
	add("fig1", Fig1(seed).Table())
	add("fig2", Fig2(seed).Table())
	add("fig3", Fig3(seed).Table())
	add("fig4", Fig4(seed).Table())
	add("fig5", Fig5(seed).Table())
	add("fig6", Fig6(seed).Table())
	add("fig7", Fig7().Table())
	fig9 := Fig9(seed)
	add("fig9", fig9.Table())
	add("fig10", Fig10(fig9.Arm("perfcloud")).Table())

	mix := DefaultLargeScaleConfig()
	mix.Seed = seed
	mix.Servers, mix.WorkersPerServer = 5, 8
	mix.NumMR, mix.NumSpark = 20, 20
	mix.Fio, mix.Streams = 4, 4
	add("fig11", Fig11With(mix, []Scheme{
		SchemeLATE(), SchemeDolly(2), SchemeDolly(4), SchemeDolly(6), SchemePerfCloud(),
	}).Table())

	vc := DefaultVariabilityConfig()
	vc.Seed = seed
	vc.Servers, vc.WorkersPerServer = 5, 8
	vc.Runs, vc.Tasks = 8, 20
	vc.Fio, vc.Streams = 4, 4
	add("fig12", Fig12With(vc, []Scheme{SchemeLATE(), SchemeDolly(2), SchemePerfCloud()}).Table())

	add("ablation-detector", AblationDetector(seed).Table())
	add("ablation-pearson", AblationPearson(seed).Table())
	add("ablation-control", AblationControl(seed, Observers{}).Table())
	add("ablation-ewma", AblationEWMA(seed).Table())
	add("extension-heterogeneous", Heterogeneous(seed).Table())
	add("extension-migration", Migration(seed).Table())
	return out
}

// TestGoldenDigests pins the simulator's behaviour across commits: every
// quick config's rendered table must hash to the digest committed in
// testdata/golden_digests.json. A refactor or a deleted fast path must
// leave the file untouched; that is its proof that results did not move.
//
// A change that alters results on purpose regenerates the file with
//
//	go test ./internal/experiments -run TestGoldenDigests -update-golden
//
// and says in CHANGES.md which digests moved and why.
func TestGoldenDigests(t *testing.T) {
	got := map[string]string{}
	for _, s := range goldenSeeds {
		for k, v := range goldenDigests(s) {
			got[k] = v
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenFile)
		return
	}
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %q, golden %q", k, got[k], want[k])
		}
	}
}
