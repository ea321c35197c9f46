package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFaultSeedInterprocedural is the engine's proof of life: the
// -tags faultseed build of internal/network seeds an acquired packet
// handed to a reference-dropping helper (faultseed_lint.go). The leak
// is invisible to an intraprocedural check; the interprocedural engine
// must report it and nothing else. Plain builds exclude the seeded
// file, so TestRepoLintClean keeps the module at zero.
func TestFaultSeedInterprocedural(t *testing.T) {
	root := moduleRootDir(t)
	pkgs, err := LoadWithTags(root, []string{"faultseed"}, "./internal/network")
	if err != nil {
		t.Fatalf("loading faultseed network: %v", err)
	}
	res := Analyze(pkgs)

	var leak *Diagnostic
	for i := range res.Diags {
		if d := &res.Diags[i]; d.Analyzer == "poolpair" {
			leak = d
		}
	}
	if leak == nil {
		t.Fatalf("seeded dropped-acquire leak not reported; diags: %v", res.Diags)
	}
	if !strings.Contains(leak.Message, "passes pooled p to network.faultSeedInspect, whose summary neither") {
		t.Errorf("leak message = %q", leak.Message)
	}
	if filepath.Base(leak.File) != "faultseed_lint.go" {
		t.Errorf("leak reported in %s, want faultseed_lint.go", leak.File)
	}

	if len(res.Diags) != 1 {
		t.Errorf("want exactly the seeded diagnostic, got %d:\n%v", len(res.Diags), res.Diags)
	}
}

// TestSummaryCacheWarm exercises the summary cache's warm path: a
// second load of the same package must take every function-fact record
// from the cache (zero extractions) and produce identical diagnostics.
func TestSummaryCacheWarm(t *testing.T) {
	saved := summaryCacheDir
	summaryCacheDir = t.TempDir()
	defer func() { summaryCacheDir = saved }()

	dir := filepath.Join("testdata", "poolpair")
	load := func() *Result {
		pkg, err := LoadDir("repro/internal/testdata/poolpair", dir)
		if err != nil {
			t.Fatalf("loading corpus: %v", err)
		}
		return Analyze([]*Package{pkg})
	}
	cold := load()
	if cold.Timing.CacheMisses == 0 {
		t.Fatalf("cold run should extract at least one package (misses=0, hits=%d)", cold.Timing.CacheHits)
	}
	warm := load()
	if warm.Timing.CacheMisses != 0 || warm.Timing.CacheHits == 0 {
		t.Errorf("warm run: hits=%d misses=%d, want all hits", warm.Timing.CacheHits, warm.Timing.CacheMisses)
	}
	if len(warm.Diags) != len(cold.Diags) {
		t.Fatalf("warm diags %d != cold diags %d", len(warm.Diags), len(cold.Diags))
	}
	for i := range warm.Diags {
		if warm.Diags[i].String() != cold.Diags[i].String() {
			t.Errorf("diag %d differs:\ncold: %s\nwarm: %s", i, cold.Diags[i], warm.Diags[i])
		}
	}
}

// TestSummaryCacheKeyTracksContent: editing a source file must change
// the package's cache key, so stale facts can never be served.
func TestSummaryCacheKeyTracksContent(t *testing.T) {
	tmp := t.TempDir()
	src := filepath.Join(tmp, "a.go")
	write := func(body string) {
		if err := os.WriteFile(src, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("package p\n\nfunc A() {}\n")
	pkg1, err := LoadDir("repro/internal/testdata/cachekey", tmp)
	if err != nil {
		t.Fatal(err)
	}
	k1 := packageCacheKey(pkg1)
	write("package p\n\nfunc A() { _ = 1 }\n")
	pkg2, err := LoadDir("repro/internal/testdata/cachekey", tmp)
	if err != nil {
		t.Fatal(err)
	}
	k2 := packageCacheKey(pkg2)
	if k1 == "" || k2 == "" {
		t.Fatalf("empty cache key (k1=%q k2=%q)", k1, k2)
	}
	if k1 == k2 {
		t.Error("cache key unchanged after source edit")
	}
}

func moduleRootDir(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
