package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// callgraph.go builds the interprocedural layer's raw material: one
// FuncInfo of serializable facts per declared function, method, and
// function literal in the module, with resolved static call edges.
// Resolution is deliberately conservative in the direction that keeps
// diagnostics honest:
//
//   - method calls resolve only on concrete receiver types (interface
//     dispatch has no static target, so no edge);
//   - function literals are tracked where they matter: one containment
//     edge from the enclosing function, plus deferred-argument tracking
//     through the ScheduleCall* family so a packet scheduled into a
//     callback is attributed to that callback's parameter.
//
// Facts are position-addressed with plain file:line:col (Site), not
// token.Pos, so a package's facts serialize into the summary cache and
// diagnostics can be rebuilt without re-walking the AST (summary.go).

// A Site is a serializable source position.
type Site struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func siteOf(fset *token.FileSet, pos token.Pos) Site {
	p := fset.Position(pos)
	return Site{File: p.Filename, Line: p.Line, Col: p.Column}
}

// A FuncID names a function uniquely across the module:
// "pkg/path.Func", "pkg/path.(Recv).Method", or
// "pkg/path.$file:line:col" for a function literal.
type FuncID string

// A ParamPass records that a parameter flows, unmodified, into a
// callee's parameter — the edge poolpair's consume propagation walks.
type ParamPass struct {
	Callee FuncID `json:"callee"`
	Param  int    `json:"param"`
}

// A ParamFact summarizes what one function does with one parameter.
// Released and HandedOff are the direct facts; summary.go folds
// PassedTo transitively into the final releases/hands-off verdict.
type ParamFact struct {
	Name      string      `json:"name,omitempty"`
	Released  bool        `json:"released,omitempty"`
	HandedOff bool        `json:"handed_off,omitempty"`
	PassedTo  []ParamPass `json:"passed_to,omitempty"`
}

// A FuncInfo is the complete per-function fact record.
type FuncInfo struct {
	ID     FuncID      `json:"id"`
	Name   string      `json:"name"` // display name, e.g. "network.(*Network).Unicast"
	Pkg    string      `json:"pkg"`  // import path
	Decl   Site        `json:"decl"`
	Sinks  []string    `json:"sinks,omitempty"` // direct ordering-sensitive sinks (maporder's one-level follow)
	Params []ParamFact `json:"params,omitempty"`
	Calls  []FuncID    `json:"calls,omitempty"` // resolved outgoing edges
}

// scheduleArgFuncs maps the callback-taking scheduling entry points to
// the positions of their (fn, arg) pair. A value handed as `arg`
// reaches the callback's first parameter.
var scheduleArgFuncs = map[string]struct{ fnIdx, argIdx int }{
	"ScheduleCall":     {1, 2},
	"ScheduleCallU":    {1, 2},
	"ScheduleCallSeq":  {2, 3},
	"ScheduleCallSeqU": {2, 3},
	"AfterCall":        {1, 2},
	"AfterCallU":       {1, 2},
}

// funcIDOf derives the stable id of a declared function or method.
func funcIDOf(obj *types.Func) FuncID {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return FuncID(pkg.Path() + ".(" + recvTypeName(sig.Recv().Type()) + ")." + obj.Name())
	}
	return FuncID(pkg.Path() + "." + obj.Name())
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// displayNameOf renders the short human name used in diagnostics:
// "pkgname.(*Recv).Method" / "pkgname.Func".
func displayNameOf(obj *types.Func) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name() + "."
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		star := ""
		if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
			star = "*"
		}
		return pkg + "(" + star + recvTypeName(sig.Recv().Type()) + ")." + obj.Name()
	}
	return pkg + obj.Name()
}

// resolveCallee returns the statically known target of a call: a
// declared function, or a method resolved on a concrete receiver type.
// Interface dispatch and function-typed values return nil.
func resolveCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	return resolveFuncExpr(info, call.Fun)
}

// resolveFuncExpr resolves an expression used as a function — a callee
// or a function value passed as an argument — to its static target.
func resolveFuncExpr(info *types.Info, e ast.Expr) *types.Func {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	switch fun := e.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch: no static target
			}
			return f
		}
		// Package-qualified: pkg.Func.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// moduleLocal reports whether a callee belongs to the same module as
// the package under extraction (first path segment match — "repro/..."
// for the real module, the testdata pseudo-paths for corpora).
func moduleLocal(pkgPath string, callee *types.Func) bool {
	if callee.Pkg() == nil {
		return false
	}
	seg := pkgPath
	if i := strings.IndexByte(seg, '/'); i >= 0 {
		seg = seg[:i]
	}
	cp := callee.Pkg().Path()
	return cp == seg || strings.HasPrefix(cp, seg+"/")
}

// extractPackage walks one type-checked package and produces its
// function facts. The walk mirrors the intraprocedural analyzers'
// classification rules exactly — parameter release/handoff fates
// (poolpair), ordering-sensitive sinks (maporder) — but records them as
// facts instead of diagnostics; summary.go decides which become
// reportable once consume bits are propagated.
func extractPackage(pkg *Package) []*FuncInfo {
	ex := &extractor{pkg: pkg}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := &FuncInfo{
				ID:   funcIDOf(obj),
				Name: displayNameOf(obj),
				Pkg:  pkg.Types.Path(),
				Decl: siteOf(pkg.Fset, fd.Name.Pos()),
			}
			ex.paramObjs(fi, fd.Type.Params)
			ex.walkBody(fi, fd.Body, paramIndexMap(pkg.Info, fd.Type.Params))
			ex.out = append(ex.out, fi)
		}
	}
	sort.Slice(ex.out, func(i, j int) bool { return ex.out[i].ID < ex.out[j].ID })
	return ex.out
}

type extractor struct {
	pkg *Package
	out []*FuncInfo
}

// paramObjs binds a function's parameter objects to their indices so
// body uses can be attributed.
func (ex *extractor) paramObjs(fi *FuncInfo, params *ast.FieldList) {
	fi.Params = nil
	if params == nil {
		return
	}
	for _, field := range params.List {
		names := field.Names
		if len(names) == 0 {
			fi.Params = append(fi.Params, ParamFact{}) // unnamed: nothing to track
			continue
		}
		for _, name := range names {
			fi.Params = append(fi.Params, ParamFact{Name: name.Name})
		}
	}
}

// paramIndexMap rebuilds the object->index mapping for a declaration's
// parameters (shared by extraction and the poolpair analyzer).
func paramIndexMap(info *types.Info, params *ast.FieldList) map[types.Object]int {
	out := map[types.Object]int{}
	if params == nil {
		return out
	}
	i := 0
	for _, field := range params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = i
			}
			i++
		}
	}
	return out
}

// walkBody extracts facts from one function body. Function literals
// get their own FuncInfo plus a containment edge from the enclosing
// function; everything else lands on fi. paramIdx maps the function's
// own parameter objects to their indices in fi.Params.
func (ex *extractor) walkBody(fi *FuncInfo, body *ast.BlockStmt, paramIdx map[types.Object]int) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			litID := litFuncID(fi.Pkg, ex.pkg.Fset, v.Pos())
			li := &FuncInfo{
				ID:   litID,
				Name: fi.Name + "$func",
				Pkg:  fi.Pkg,
				Decl: siteOf(ex.pkg.Fset, v.Pos()),
			}
			ex.paramObjs(li, v.Type.Params)
			ex.walkBody(li, v.Body, paramIndexMap(ex.pkg.Info, v.Type.Params))
			ex.out = append(ex.out, li)
			fi.Calls = append(fi.Calls, litID)
			return false // literal body handled by the recursive walk
		case *ast.CallExpr:
			ex.call(fi, v, paramIdx)
		case *ast.AssignStmt:
			for _, rhs := range v.Rhs {
				// Storing a parameter into anything is a handoff.
				if i, ok := paramUse(ex.pkg.Info, rhs, paramIdx); ok {
					fi.Params[i].HandedOff = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				if i, ok := paramUse(ex.pkg.Info, res, paramIdx); ok {
					fi.Params[i].HandedOff = true
				}
			}
		case *ast.SendStmt:
			if i, ok := paramUse(ex.pkg.Info, v.Value, paramIdx); ok {
				fi.Params[i].HandedOff = true
			}
		case *ast.CompositeLit:
			for _, el := range v.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if i, ok := paramUse(ex.pkg.Info, el, paramIdx); ok {
					fi.Params[i].HandedOff = true
				}
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if i, ok := paramUse(ex.pkg.Info, v.X, paramIdx); ok {
					fi.Params[i].HandedOff = true
				}
			}
		}
		return true
	})
	dedupeSinks(fi)
}

// call records the facts of one call expression: the static edge, the
// parameter passes, schedule-callback tracking, and direct ordered
// sinks.
func (ex *extractor) call(fi *FuncInfo, call *ast.CallExpr, paramIdx map[types.Object]int) {
	info := ex.pkg.Info
	name := calleeName(call)

	// Direct ordered sinks (maporder's one-level summary).
	switch {
	case scheduleSinks[name]:
		fi.Sinks = append(fi.Sinks, fmt.Sprintf("calls %s, entering the event/transmission order", name))
	case emitSinks[name]:
		fi.Sinks = append(fi.Sinks, fmt.Sprintf("emits output via %s", name))
	case (name == "Add" || name == "Merge") && isStatsAccumCallInfo(info, call):
		fi.Sinks = append(fi.Sinks, fmt.Sprintf("%s on a stats accumulator folds a float sum, order-sensitive in the last ulp", name))
	}

	// Schedule-callback tracking: fn and arg positions. A literal
	// callback gets its containment edge when the walk reaches it; its
	// arg handoff is resolved by poolpair directly, so the pass is
	// recorded here for declared-function callbacks only.
	if sched, ok := scheduleArgFuncs[name]; ok && len(call.Args) > sched.argIdx {
		fnExpr := call.Args[sched.fnIdx]
		if _, lit := fnExpr.(*ast.FuncLit); !lit {
			if fn := resolveFuncExpr(info, fnExpr); fn != nil && moduleLocal(fi.Pkg, fn) {
				fi.Calls = append(fi.Calls, funcIDOf(fn))
				if i, ok := paramUse(info, call.Args[sched.argIdx], paramIdx); ok {
					fi.Params[i].PassedTo = append(fi.Params[i].PassedTo, ParamPass{Callee: funcIDOf(fn), Param: 0})
				}
			} else if i, ok := paramUse(info, call.Args[sched.argIdx], paramIdx); ok {
				// Unresolvable callback: the arg handoff is conservative.
				fi.Params[i].HandedOff = true
			}
		}
	}

	callee := resolveCallee(info, call)
	if callee != nil && moduleLocal(fi.Pkg, callee) {
		fi.Calls = append(fi.Calls, funcIDOf(callee))
	}

	// Parameter passes through ordinary argument positions.
	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	for argPos, arg := range call.Args {
		i, ok := paramUse(info, arg, paramIdx)
		if !ok {
			continue
		}
		if strings.HasPrefix(name, "Release") {
			fi.Params[i].Released = true
			continue
		}
		if sched, ok := scheduleArgFuncs[name]; ok && argPos == sched.argIdx {
			continue // handled above (callback-arg pass or conservative handoff)
		}
		if callee == nil || !moduleLocal(fi.Pkg, callee) || sig == nil ||
			(sig.Variadic() && argPos >= sig.Params().Len()-1) || argPos >= sig.Params().Len() {
			// Dynamic, external, or variadic-tail: assume the callee
			// takes ownership (the old intraprocedural behavior).
			fi.Params[i].HandedOff = true
			continue
		}
		fi.Params[i].PassedTo = append(fi.Params[i].PassedTo, ParamPass{Callee: funcIDOf(callee), Param: argPos})
	}
}

// paramUse reports whether expr is (exactly) a tracked parameter
// identifier, returning its index.
func paramUse(info *types.Info, expr ast.Expr, paramIdx map[types.Object]int) (int, bool) {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := info.Uses[id]
	if obj == nil {
		return 0, false
	}
	i, ok := paramIdx[obj]
	return i, ok
}

// litFuncID is the stable id of a function literal: package path plus
// the literal's base-file position.
func litFuncID(pkgPath string, fset *token.FileSet, pos token.Pos) FuncID {
	p := fset.Position(pos)
	f := p.Filename
	if i := strings.LastIndexByte(f, '/'); i >= 0 {
		f = f[i+1:]
	}
	return FuncID(fmt.Sprintf("%s.$%s:%d:%d", pkgPath, f, p.Line, p.Column))
}

// callbackFuncID resolves the fn argument of a ScheduleCall*-family
// call to the FuncID of the callback it schedules ("" when the target
// is dynamic).
func callbackFuncID(pkgPath string, fset *token.FileSet, info *types.Info, fnExpr ast.Expr) FuncID {
	if lit, ok := fnExpr.(*ast.FuncLit); ok {
		return litFuncID(pkgPath, fset, lit.Pos())
	}
	if fn := resolveFuncExpr(info, fnExpr); fn != nil {
		return funcIDOf(fn)
	}
	return ""
}

func dedupeSinks(fi *FuncInfo) {
	if len(fi.Sinks) < 2 {
		return
	}
	seen := map[string]bool{}
	out := fi.Sinks[:0]
	for _, s := range fi.Sinks {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	fi.Sinks = out
}

// isStatsAccumCallInfo is isStatsAccumCall against a bare types.Info
// (shared between the extractor and the maporder analyzer).
func isStatsAccumCallInfo(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(named.Obj().Pkg().Path(), "internal/stats")
}

// --- strongly connected components -----------------------------------

// condense runs Tarjan's algorithm over the call graph restricted to
// ids present in funcs and returns the SCCs in reverse topological
// order (callees before callers) — the order bottom-up summary
// propagation consumes.
func condense(funcs map[FuncID]*FuncInfo) [][]FuncID {
	ids := make([]FuncID, 0, len(funcs))
	for id := range funcs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	succs := func(id FuncID) []FuncID {
		fi := funcs[id]
		var out []FuncID
		for _, c := range fi.Calls {
			if _, ok := funcs[c]; ok {
				out = append(out, c)
			}
		}
		for _, p := range fi.Params {
			for _, pass := range p.PassedTo {
				if _, ok := funcs[pass.Callee]; ok {
					out = append(out, pass.Callee)
				}
			}
		}
		return out
	}

	// Iterative Tarjan (explicit stack; module depth can exceed the
	// goroutine stack comfort zone on deep helper chains).
	index := map[FuncID]int{}
	low := map[FuncID]int{}
	onStack := map[FuncID]bool{}
	var stack []FuncID
	var sccs [][]FuncID
	next := 0

	type frame struct {
		id    FuncID
		succ  []FuncID
		child int
	}
	for _, root := range ids {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{id: root, succ: succs(root)}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.child < len(f.succ) {
				w := f.succ[f.child]
				f.child++
				if _, seen := index[w]; !seen {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{id: w, succ: succs(w)})
				} else if onStack[w] && index[w] < low[f.id] {
					low[f.id] = index[w]
				}
				continue
			}
			// All successors done: close the node.
			if low[f.id] == index[f.id] {
				var scc []FuncID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == f.id {
						break
					}
				}
				sort.Slice(scc, func(i, j int) bool { return scc[i] < scc[j] })
				sccs = append(sccs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[f.id] < low[p.id] {
					low[p.id] = low[f.id]
				}
			}
		}
	}
	return sccs
}
