package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the closure-capture dataflow underneath the concurrency
// rules: it finds the callbacks handed to the internal/par entry points
// and, for each, classifies every write in the callback body as
// iteration-owned (indexed by the item/slot/worker argument, directly
// or through a derived variable) or shared (a captured location no
// argument-derived index selects — the race-and-nondeterminism smell
// the whole worker-pool design exists to prevent).
//
// Approximations, chosen so every report is actionable:
//
//   - Mutation through method calls (m.Set(i, j, v), slice arguments to
//     kernels) is not tracked; only direct assignments and ++/-- are.
//     The repository's hot callbacks mutate through indexed stores, so
//     this misses little, and it keeps the signal clean.
//   - A variable assigned *from* a parameter-derived expression is
//     itself derived (flow-insensitive fixpoint). Aliasing a shared
//     region into a fresh local and writing through it is therefore
//     visible only if the alias expression mentions no parameter.
//   - Function literals nested inside a callback are analyzed as part
//     of the callback body: whatever schedule runs them, their writes
//     happen within the iteration's dynamic extent.

// parEntryNames are the internal/par entry points that run a callback
// on pool workers. The map value records which leading parameter of the
// callback is the worker index (-1: none; the remaining parameters are
// the item/slot/range arguments).
var parEntryNames = map[string]int{
	"ForChunks":     0,
	"ForWorkers":    0,
	"ForWorkersCtx": 0,
	"Map":           -1,
	"RunDAG":        0,
	"RunDAGScratch": 0,
}

// parEntry resolves a call to an internal/par entry point.
func parEntry(p *Package, call *ast.CallExpr) (*types.Func, bool) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, false
	}
	path := fn.Pkg().Path()
	if !strings.HasSuffix(path, "/internal/par") && path != "par" {
		return nil, false
	}
	if _, ok := parEntryNames[fn.Name()]; !ok {
		return nil, false
	}
	return fn, true
}

// parCallback is one callback handed to a par entry point: an inline
// function literal (the usual form) or a named function passed by
// reference.
type parCallback struct {
	pkg   *Package
	call  *ast.CallExpr
	entry *types.Func
	lit   *ast.FuncLit // inline literal, or nil
	named *types.Func  // named function passed as the callback, or nil
}

// parCallbacks finds every callback handed to a par entry point in the
// package, in source order.
func parCallbacks(p *Package) []parCallback {
	var out []parCallback
	inspect(p, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		entry, ok := parEntry(p, call)
		if !ok {
			return true
		}
		cb := parCallback{pkg: p, call: call, entry: entry}
		switch a := ast.Unparen(call.Args[len(call.Args)-1]).(type) {
		case *ast.FuncLit:
			cb.lit = a
		case *ast.Ident:
			cb.named, _ = p.Info.Uses[a].(*types.Func)
		case *ast.SelectorExpr:
			cb.named, _ = p.Info.Uses[a.Sel].(*types.Func)
		}
		if cb.lit != nil || cb.named != nil {
			out = append(out, cb)
		}
		return true
	})
	return out
}

// callbackScope is the dataflow result for one literal callback.
type callbackScope struct {
	p   *Package
	lit *ast.FuncLit

	// inner is every object declared inside the literal (parameters,
	// := definitions, range variables); writes to these are
	// iteration-local and never reported.
	inner map[types.Object]bool

	// derivedAll is the fixpoint of "mentions a callback parameter":
	// the parameters themselves plus every variable assigned from an
	// expression mentioning a derived variable. An index drawn from
	// this set selects an iteration- or worker-owned region.
	derivedAll map[*types.Var]bool

	// derivedItem is the same fixpoint seeded only with the item/slot
	// parameters (the worker index excluded): an index drawn from this
	// set is owned by exactly one iteration, which is the property the
	// fixed-order reduction argument needs — worker-indexed slots
	// receive items in scheduling order and do not qualify.
	derivedItem map[*types.Var]bool
}

// analyzeCallback computes the capture/derivation sets for a literal
// callback of the given entry point.
func analyzeCallback(p *Package, entry *types.Func, lit *ast.FuncLit) *callbackScope {
	cs := &callbackScope{
		p:           p,
		lit:         lit,
		inner:       map[types.Object]bool{},
		derivedAll:  map[*types.Var]bool{},
		derivedItem: map[*types.Var]bool{},
	}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				cs.inner[obj] = true
			}
		}
		return true
	})
	workerParam := parEntryNames[entry.Name()]
	var params []*types.Var
	if lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				v, _ := p.Info.Defs[name].(*types.Var)
				params = append(params, v) // nil kept to preserve positions
			}
		}
	}
	for i, v := range params {
		if v == nil {
			continue
		}
		cs.derivedAll[v] = true
		if !(workerParam == i && len(params) > 1) {
			cs.derivedItem[v] = true
		}
	}
	deriveFixpoint(p, lit.Body, cs.derivedAll)
	deriveFixpoint(p, lit.Body, cs.derivedItem)
	return cs
}

// deriveFixpoint grows derived with every variable assigned from an
// expression that mentions a derived variable, to a fixed point.
func deriveFixpoint(p *Package, body *ast.BlockStmt, derived map[*types.Var]bool) {
	mark := func(e ast.Expr, changed *bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		if v := varObject(p, id); v != nil && !derived[v] {
			derived[v] = true
			*changed = true
		}
	}
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i := range s.Lhs {
						if mentionsDerived(p, s.Rhs[i], derived) {
							mark(s.Lhs[i], &changed)
						}
					}
				} else {
					for _, r := range s.Rhs {
						if mentionsDerived(p, r, derived) {
							for _, l := range s.Lhs {
								mark(l, &changed)
							}
							break
						}
					}
				}
			case *ast.RangeStmt:
				if mentionsDerived(p, s.X, derived) {
					if s.Key != nil {
						mark(s.Key, &changed)
					}
					if s.Value != nil {
						mark(s.Value, &changed)
					}
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// mentionsDerived reports whether any identifier under e resolves to a
// derived variable.
func mentionsDerived(p *Package, e ast.Expr, derived map[*types.Var]bool) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v := varObject(p, id); v != nil && derived[v] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// capturedWrite is one direct write in a callback body whose target is
// a variable captured from outside the callback.
type capturedWrite struct {
	pos  token.Pos
	v    *types.Var  // captured base variable
	expr ast.Expr    // the full lvalue, for rendering
	op   token.Token // ASSIGN, ADD_ASSIGN, ..., INC, DEC
	rhs  ast.Expr    // nil for ++/--

	indexedAll  bool // some index along the chain is parameter-derived
	indexedItem bool // some index is item-parameter-derived
	typ         types.Type
}

// desc renders the lvalue for a diagnostic.
func (w capturedWrite) desc() string { return types.ExprString(w.expr) }

// capturedWrites enumerates the captured-variable writes of a literal
// callback. Writes to package-level variables are excluded — those are
// globalmut's jurisdiction, whatever function they appear in.
func capturedWrites(cs *callbackScope) []capturedWrite {
	var out []capturedWrite
	add := func(lhs ast.Expr, op token.Token, rhs ast.Expr) {
		base, indexes := unwrapLvalue(lhs)
		if base == nil {
			return
		}
		v := varObject(cs.p, base)
		if v == nil || cs.inner[v] {
			return
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return // package-level: globalmut reports these
		}
		w := capturedWrite{pos: lhs.Pos(), v: v, expr: lhs, op: op, rhs: rhs}
		for _, ix := range indexes {
			if mentionsDerived(cs.p, ix, cs.derivedAll) {
				w.indexedAll = true
			}
			if mentionsDerived(cs.p, ix, cs.derivedItem) {
				w.indexedItem = true
			}
		}
		if tv, ok := cs.p.Info.Types[lhs]; ok {
			w.typ = tv.Type
		} else {
			w.typ = v.Type()
		}
		out = append(out, w)
	}
	ast.Inspect(cs.lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true // new iteration-local declarations
			}
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Lhs) == len(s.Rhs) {
					rhs = s.Rhs[i]
				}
				add(lhs, s.Tok, rhs)
			}
		case *ast.IncDecStmt:
			add(s.X, s.Tok, nil)
		}
		return true
	})
	return out
}

// floatAccumWrite reports whether a captured write is a floating-point
// accumulation: a compound arithmetic assignment (+=, -=, *=, /=), a
// float ++/--, or a plain assignment whose right side reads the written
// variable back (x = x + v). These are the order-dependent reductions
// fpreduce owns; sharedwrite skips them so each finding has one rule.
func floatAccumWrite(cs *callbackScope, w capturedWrite) bool {
	if !isFloatType(w.typ) {
		return false
	}
	switch w.op {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN,
		token.INC, token.DEC:
		return true
	case token.ASSIGN:
		return w.rhs != nil && mentionsVar(cs.p, w.rhs, w.v)
	}
	return false
}

// mentionsVar reports whether expression e reads variable v.
func mentionsVar(p *Package, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && varObject(p, id) == v {
			found = true
			return false
		}
		return true
	})
	return found
}
