package experiment

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// update rewrites the golden digests from the current code instead of
// checking against them:
//
//	go test ./internal/experiment -run TestAllExperimentsQuick -update
//
// A change that moves a digest must say why in CHANGES.md.
var update = flag.Bool("update", false, "rewrite testdata/golden_quick.txt from the current tables")

// goldenPath holds one FNV-1a digest per table of every registered
// experiment's quick-size run (QuickOptions, seed 1).
var goldenPath = filepath.Join("testdata", "golden_quick.txt")

// goldenKey names one table: the experiment and the table's position in
// its output.
type goldenKey struct {
	exp   string
	index int
}

type goldenEntry struct {
	digest  string
	tableID string
}

// goldenSet is the digest file in memory. Parallel subtests check (or,
// under -update, record) their experiment's entries concurrently.
type goldenSet struct {
	mu      sync.Mutex
	entries map[goldenKey]goldenEntry
}

// digest is the FNV-1a 64 hash of one rendered table.
func digest(rendered string) string {
	h := fnv.New64a()
	h.Write([]byte(rendered))
	return fmt.Sprintf("%016x", h.Sum64())
}

// loadGolden reads the digest file. Under -update a missing file is an
// empty set, and the file is rewritten once every subtest of t has
// finished; entries of experiments that did not run (skipped with
// -short) are kept as they were.
func loadGolden(t *testing.T) *goldenSet {
	t.Helper()
	g := &goldenSet{entries: make(map[goldenKey]goldenEntry)}
	f, err := os.Open(goldenPath)
	switch {
	case err == nil:
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			fields := strings.SplitN(text, "\t", 4)
			if len(fields) != 4 {
				t.Fatalf("%s:%d: want 4 tab-separated fields, got %q", goldenPath, line, text)
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil {
				t.Fatalf("%s:%d: bad table index: %v", goldenPath, line, err)
			}
			g.entries[goldenKey{fields[0], idx}] = goldenEntry{digest: fields[2], tableID: fields[3]}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	case os.IsNotExist(err) && *update:
	default:
		t.Fatalf("reading golden digests: %v (rewrite with -update)", err)
	}
	if *update {
		t.Cleanup(func() { g.write(t) })
	}
	return g
}

// check compares an experiment's rendered tables with their digests,
// or records them under -update.
func (g *goldenSet) check(t *testing.T, exp string, rendered []string) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if *update {
		for k := range g.entries {
			if k.exp == exp {
				delete(g.entries, k)
			}
		}
		for i, r := range rendered {
			g.entries[goldenKey{exp, i}] = goldenEntry{digest: digest(r), tableID: tableIDOf(r)}
		}
		return
	}
	want := 0
	for k := range g.entries {
		if k.exp == exp {
			want++
		}
	}
	if want != len(rendered) {
		t.Errorf("experiment %s renders %d tables, golden digests record %d (rewrite with -update)", exp, len(rendered), want)
	}
	for i, r := range rendered {
		e, ok := g.entries[goldenKey{exp, i}]
		if !ok {
			continue
		}
		if got := digest(r); got != e.digest {
			t.Errorf("experiment %s table %d (%s): digest %s, golden %s — the table changed:\n%s",
				exp, i, e.tableID, got, e.digest, r)
		}
	}
}

// tableIDOf recovers the table ID from the "== ID: Title ==" line
// Table.String starts with (kept in the digest file only to make it
// readable).
func tableIDOf(rendered string) string {
	id, _, _ := strings.Cut(strings.TrimPrefix(rendered, "== "), ":")
	return id
}

// write rewrites the digest file in (experiment, table) order.
func (g *goldenSet) write(t *testing.T) {
	keys := make([]goldenKey, 0, len(g.entries))
	for k := range g.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].exp != keys[j].exp {
			return keys[i].exp < keys[j].exp
		}
		return keys[i].index < keys[j].index
	})
	var b strings.Builder
	b.WriteString("# FNV-1a 64 digest of every table (aligned + CSV) of each experiment's\n")
	b.WriteString("# quick-size run. Columns: experiment, table index, digest, table ID.\n")
	b.WriteString("# Rewrite with: go test ./internal/experiment -run TestAllExperimentsQuick -update\n")
	for _, k := range keys {
		e := g.entries[k]
		fmt.Fprintf(&b, "%s\t%d\t%s\t%s\n", k.exp, k.index, e.digest, e.tableID)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
