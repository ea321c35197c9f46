package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// summary.go turns the per-function facts of callgraph.go into the
// propagated summaries the analyzers consume: consume bits. A
// parameter is *consumed* (released or handed off) either directly or
// transitively through the callees it is passed to, computed bottom-up
// over the SCC condensation with a fixed point inside each cycle.
//
// Extraction facts — everything callgraph.go records, nothing derived —
// are cached per package as JSON keyed by a content hash of the
// package's sources plus the engine version. Propagation is cheap
// (linear in edges) and always re-runs, so a stale mix of cached and
// fresh packages can never produce stale *derived* state.

// summaryEngineVersion participates in the cache key; bump it whenever
// extraction semantics change so old fact files are ignored.
const summaryEngineVersion = "hvdblint-summary-v2"

// summaryCacheDir overrides the cache location; empty means
// $HVDBLINT_CACHE or the user cache dir. Tests point it at t.TempDir().
var summaryCacheDir = ""

// A Module holds the propagated interprocedural state for one Load.
type Module struct {
	Funcs map[FuncID]*FuncInfo

	// consumed[id][i]: parameter i of id is transitively released or
	// handed off on at least one path.
	consumed map[FuncID][]bool
	// released[id][i]: parameter i of id is transitively *released*
	// (strictly stronger than consumed; poolpair distinguishes the two
	// in messages).
	released map[FuncID][]bool

	// Timing and cache accounting, surfaced by hvdblint -timing.
	BuildTime  time.Duration
	CacheHits  int
	CacheMiss  int
	CachedFrom string // resolved cache directory ("" if disabled)
}

// BuildModule extracts (or loads cached) facts for every package and
// runs propagation. It never fails the analysis: cache errors degrade
// to re-extraction, and packages are assumed type-checked by Load.
func BuildModule(pkgs []*Package) *Module {
	start := time.Now()
	m := &Module{Funcs: map[FuncID]*FuncInfo{}}
	dir := resolveCacheDir()
	m.CachedFrom = dir
	for _, pkg := range pkgs {
		var funcs []*FuncInfo
		key := ""
		if dir != "" {
			key = packageCacheKey(pkg)
			if cached, ok := readFactCache(dir, key); ok {
				funcs = cached
				m.CacheHits++
			}
		}
		if funcs == nil {
			funcs = extractPackage(pkg)
			m.CacheMiss++
			if dir != "" && key != "" {
				writeFactCache(dir, key, funcs)
			}
		}
		for _, fi := range funcs {
			m.Funcs[fi.ID] = fi
		}
	}
	m.propagateConsume()
	m.BuildTime = time.Since(start)
	return m
}

// --- propagation ------------------------------------------------------

// propagateConsume computes the transitive released/consumed bits
// bottom-up over the condensation; within an SCC the member functions
// iterate to a fixed point (bits only ever turn on, so termination is
// immediate: at most params×members flips).
func (m *Module) propagateConsume() {
	m.consumed = map[FuncID][]bool{}
	m.released = map[FuncID][]bool{}
	for id, fi := range m.Funcs {
		c := make([]bool, len(fi.Params))
		r := make([]bool, len(fi.Params))
		for i, p := range fi.Params {
			r[i] = p.Released
			c[i] = p.Released || p.HandedOff
		}
		m.consumed[id] = c
		m.released[id] = r
	}
	apply := func(id FuncID) bool {
		changed := false
		fi := m.Funcs[id]
		for i, p := range fi.Params {
			for _, pass := range p.PassedTo {
				cc, ok := m.consumed[pass.Callee]
				if !ok || pass.Param >= len(cc) {
					// Unknown callee or position: conservative handoff.
					if !m.consumed[id][i] {
						m.consumed[id][i] = true
						changed = true
					}
					continue
				}
				if cc[pass.Param] && !m.consumed[id][i] {
					m.consumed[id][i] = true
					changed = true
				}
				if rr := m.released[pass.Callee]; pass.Param < len(rr) && rr[pass.Param] && !m.released[id][i] {
					m.released[id][i] = true
					changed = true
				}
			}
		}
		return changed
	}
	for _, scc := range condense(m.Funcs) {
		for changed := true; changed; {
			changed = false
			for _, id := range scc {
				if apply(id) {
					changed = true
				}
			}
			if len(scc) == 1 {
				break // no cycle: one pass suffices
			}
		}
	}
}

// Consumes reports whether callee id transitively releases or hands
// off its param'th parameter. Unknown ids are conservatively consuming
// (matches the old intraprocedural assumption for unresolvable calls).
func (m *Module) Consumes(id FuncID, param int) bool {
	c, ok := m.consumed[id]
	if !ok || param >= len(c) {
		return true
	}
	return c[param]
}

// Releases reports whether callee id transitively releases its
// param'th parameter (false for unknown ids — only a positive release
// fact earns the stronger wording).
func (m *Module) Releases(id FuncID, param int) bool {
	r, ok := m.released[id]
	if !ok || param >= len(r) {
		return false
	}
	return r[param]
}

// Func returns the fact record for id, or nil.
func (m *Module) Func(id FuncID) *FuncInfo { return m.Funcs[id] }

// --- fact cache -------------------------------------------------------

func resolveCacheDir() string {
	if summaryCacheDir != "" {
		return summaryCacheDir
	}
	if env := os.Getenv("HVDBLINT_CACHE"); env != "" {
		return env
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "hvdblint")
}

// packageCacheKey hashes the engine version, import path, and every
// file's name and contents. Types and imports do not participate: a
// dependency change that alters resolution also changes this package's
// analysis inputs only through its own sources' meaning, and the
// engine records only module-local resolved edges whose targets are
// re-validated during propagation — an edge into a function that no
// longer exists simply propagates nothing.
func packageCacheKey(pkg *Package) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", summaryEngineVersion, pkg.Types.Path())
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		fmt.Fprintf(h, "%s\x00", name)
		data, err := os.ReadFile(name)
		if err != nil {
			return "" // unreadable source (in-memory test package): no caching
		}
		h.Write(data)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func readFactCache(dir, key string) ([]*FuncInfo, bool) {
	if key == "" {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		return nil, false
	}
	var funcs []*FuncInfo
	if err := json.Unmarshal(data, &funcs); err != nil {
		return nil, false
	}
	return funcs, true
}

func writeFactCache(dir, key string, funcs []*FuncInfo) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	data, err := json.Marshal(funcs)
	if err != nil {
		return
	}
	tmp := filepath.Join(dir, key+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, filepath.Join(dir, key+".json"))
}
