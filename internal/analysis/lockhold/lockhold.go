// Package lockhold implements the collsellint analyzer that forbids
// holding a mutex across a blocking operation.
//
// The serving stack's tail latency budget assumes critical sections are
// short: internal/cluster's health machine and internal/serve's refinement
// gate both take a mutex on the request path. A blocking call
// made while the mutex is held — a channel send or receive, a select with
// no default, time.Sleep, (*sync.WaitGroup).Wait, a net/http round-trip, a
// dial — turns one slow peer into a pile-up of every goroutine contending
// that lock (exactly the failure mode PR 9's partition chaos scenario
// provokes).
//
// Blocking is interprocedural: a function that performs a blocking
// operation is marked with a "may block" fact, and the fact propagates
// across package boundaries through the go/analysis facts mechanism, so
// calling a helper that (transitively) sleeps is flagged the same as
// sleeping inline. Three constructs do not propagate to the caller:
//
//   - `go f()` — the spawned goroutine blocks, not this frame;
//   - a function literal that is only defined, not invoked (it runs later,
//     usually after the unlock);
//   - receive/send in a _test.go file (tests are out of scope).
//
// A critical section starts at a (*sync.Mutex).Lock / (*sync.RWMutex).Lock
// or RLock call and ends at the matching Unlock/RUnlock on the same
// receiver expression within the same statement list, or at the end of the
// enclosing function when the unlock is deferred. Intentional
// hold-across-block — e.g. a handoff protocol that owns the lock by design
// — is annotated in place with //collsel:lockhold <why>.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"collsel/internal/analysis/annotation"
)

var Analyzer = &analysis.Analyzer{
	Name:      "lockhold",
	Doc:       "forbid blocking operations (channel ops, selects, sleeps, Waits, net/http round-trips) while holding a mutex",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{new(mayBlockFact)},
	Run:       run,
}

var factModFlag string

func init() {
	// Facts propagate only within the module: following "may block" into
	// the standard library reaches runtime internals where every
	// allocation eventually parks on a channel, which would flag all code.
	// Calls that leave the module are classified by the explicit
	// stdBlocking contract list instead.
	Analyzer.Flags.StringVar(&factModFlag, "factmod", "collsel",
		"module path prefix within which may-block facts propagate")
	annotation.RegisterAuditFlag(&Analyzer.Flags)
}

func inFactScope(path string) bool {
	return path == factModFlag || strings.HasPrefix(path, factModFlag+"/")
}

// mayBlockFact marks a function that (transitively) performs a blocking
// operation. It crosses package boundaries via the facts mechanism.
type mayBlockFact struct {
	Reason string // the root blocking construct, for the diagnostic
}

func (*mayBlockFact) AFact()           {}
func (f *mayBlockFact) String() string { return "mayBlock(" + f.Reason + ")" }

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	anns := make(map[*token.File]*annotation.File)
	skip := make(map[*token.File]bool)
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if strings.HasSuffix(tf.Name(), "_test.go") {
			skip[tf] = true
			continue
		}
		anns[tf] = annotation.Collect(pass.Fset, f)
	}

	// Phase 1: compute the package-local may-block set to a fixed point,
	// seeded by direct blocking constructs and facts imported from
	// dependencies, then export facts for downstream packages.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var order []*types.Func // deterministic iteration for the fixed point
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		d := n.(*ast.FuncDecl)
		if d.Body == nil || skip[pass.Fset.File(d.Pos())] {
			return
		}
		if fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func); ok {
			decls[fn] = d
			order = append(order, fn)
		}
	})

	local := make(map[*types.Func]string) // fn -> reason it may block
	mayBlock := func(fn *types.Func) (string, bool) {
		if r, ok := local[fn]; ok {
			return r, true
		}
		if fn.Pkg() == pass.Pkg || !inFactScope(fn.Pkg().Path()) {
			return "", false
		}
		var fact mayBlockFact
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Reason, true
		}
		return "", false
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			if _, done := local[fn]; done {
				continue
			}
			reason := ""
			// Record the root cause, not the call chain: a fact's reason
			// stays "time.Sleep" however many helpers deep the sleep is.
			scanBlocking(pass, decls[fn].Body, mayBlock, func(n ast.Node, desc, root string) {
				if reason == "" {
					reason = root
				}
			})
			if reason != "" {
				local[fn] = reason
				changed = true
			}
		}
	}
	if inFactScope(pass.Pkg.Path()) {
		for _, fn := range order {
			if r, ok := local[fn]; ok {
				pass.ExportObjectFact(fn, &mayBlockFact{Reason: r})
			}
		}
	}

	// Phase 2: find critical sections and flag blocking operations inside.
	ins.Preorder([]ast.Node{(*ast.BlockStmt)(nil), (*ast.CaseClause)(nil), (*ast.CommClause)(nil)}, func(n ast.Node) {
		tf := pass.Fset.File(n.Pos())
		if skip[tf] {
			return
		}
		var stmts []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			stmts = n.List
		case *ast.CaseClause:
			stmts = n.Body
		case *ast.CommClause:
			stmts = n.Body
		}
		checkList(pass, stmts, anns[tf], mayBlock)
	})
	return nil, nil
}

// lockRegion is one open critical section within a statement list.
type lockRegion struct {
	recv   string // receiver expression of the Lock call, e.g. "s.mu"
	unlock string // method name that closes it: Unlock or RUnlock
}

// checkList scans one statement list for Lock()..Unlock() regions and
// reports blocking operations inside them. A region opened by `mu.Lock()`
// ends at the first statement whose subtree contains `mu.Unlock()` (nodes
// of that statement before the unlock are still inside), or at the end of
// the list when the unlock is deferred or absent (the lock is then held for
// the rest of the function).
func checkList(pass *analysis.Pass, stmts []ast.Stmt, ann *annotation.File,
	mayBlock func(*types.Func) (string, bool)) {

	var open []lockRegion
	report := func(region lockRegion) func(ast.Node, string, string) {
		return func(n ast.Node, desc, _ string) {
			if ann.Suppressed(pass, "lockhold", n.Pos(), n.End()) {
				return
			}
			pass.Reportf(n.Pos(),
				"%s held across %s: blocking while holding the mutex stalls every contender; move it outside the critical section (//collsel:lockhold <why> to allow)",
				region.recv, desc)
		}
	}

	for _, stmt := range stmts {
		// A deferred unlock pins the region to the end of the function;
		// everything after it in this list is a critical section.
		if d, ok := stmt.(*ast.DeferStmt); ok {
			if _, name, ok := mutexCall(pass, d.Call); ok && (name == "Unlock" || name == "RUnlock") {
				continue // matching region, if any, stays open to list end
			}
		}

		// Does this statement close any open region?
		if len(open) > 0 {
			var kept []lockRegion
			for _, r := range open {
				if pos, ok := findUnlock(pass, stmt, r); ok {
					// Nodes of this statement before the unlock are still
					// under the lock.
					scanBlockingBefore(pass, stmt, pos, mayBlock, report(r))
				} else {
					kept = append(kept, r)
				}
			}
			for _, r := range kept {
				scanBlocking(pass, stmt, mayBlock, report(r))
			}
			open = kept
		}

		// Does this statement open a region? (`mu.Lock()` as its own
		// statement — the repo's only idiom for taking a lock.)
		if es, ok := stmt.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if recv, name, ok := mutexCall(pass, call); ok {
					switch name {
					case "Lock":
						open = append(open, lockRegion{recv: recv, unlock: "Unlock"})
					case "RLock":
						open = append(open, lockRegion{recv: recv, unlock: "RUnlock"})
					}
				}
			}
		}
	}
}

// findUnlock reports the position of the call closing region r inside
// stmt's subtree, if any. Uninvoked function literals and go statements are
// not part of this frame's control flow and are skipped.
func findUnlock(pass *analysis.Pass, stmt ast.Stmt, r lockRegion) (token.Pos, bool) {
	pos := token.NoPos
	frameWalk(stmt, func(n ast.Node) {
		if pos.IsValid() {
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if recv, name, ok := mutexCall(pass, call); ok && name == r.unlock && recv == r.recv {
			pos = call.Pos()
		}
	})
	return pos, pos.IsValid()
}

// scanBlocking reports every blocking construct in n's subtree that would
// execute in this frame: channel sends/receives, selects without default,
// ranges over channels, and calls to blocking or may-block functions. The
// report callback receives a display description and the root blocking
// primitive (equal for direct ops; for calls, the callee's root cause).
func scanBlocking(pass *analysis.Pass, n ast.Node, mayBlock func(*types.Func) (string, bool),
	report func(ast.Node, string, string)) {
	scanBlockingBefore(pass, n, token.Pos(1<<62), mayBlock, report)
}

// scanBlockingBefore is scanBlocking limited to nodes starting before cut.
func scanBlockingBefore(pass *analysis.Pass, root ast.Node, cut token.Pos,
	mayBlock func(*types.Func) (string, bool), report func(ast.Node, string, string)) {

	direct := func(n ast.Node, desc string) { report(n, desc, desc) }
	frameWalk(root, func(n ast.Node) {
		if n.Pos() >= cut {
			return
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			direct(n, "a channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				direct(n, "a channel receive")
			}
		case *ast.SelectStmt:
			if !hasDefaultClause(n) {
				direct(n, "a select with no default")
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					direct(n, "a range over a channel")
				}
			}
		case *ast.CallExpr:
			if desc, root, ok := blockingCall(pass, n, mayBlock); ok {
				report(n, desc, root)
			}
		}
	})
}

// frameWalk visits every node of root that executes in the current frame:
// it skips go statements (the spawned goroutine is a different frame) and
// function-literal bodies unless the literal is invoked on the spot.
func frameWalk(root ast.Node, visit func(ast.Node)) {
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				// The comm expressions are the select's alternatives, not
				// standalone channel ops — the select node itself carries
				// the blocking semantics. Clause bodies run normally.
				visit(n)
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							walk(s)
						}
					}
				}
				return false
			case *ast.CallExpr:
				if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
					visit(n)
					walk(lit.Body)
					for _, a := range n.Args {
						walk(a)
					}
					return false
				}
			}
			if n != nil {
				visit(n)
			}
			return true
		})
	}
	walk(root)
}

func hasDefaultClause(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall reports whether call is a blocking operation: a known
// blocking standard-library call, or a call to a function carrying a
// may-block fact (imported or computed locally this pass). Returns the
// display description and the root blocking primitive.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr,
	mayBlock func(*types.Func) (string, bool)) (string, string, bool) {

	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", false // builtin, func value or unresolvable — assume short
	}
	if desc, ok := stdBlocking(fn); ok {
		return desc, desc, true
	}
	if reason, ok := mayBlock(fn); ok {
		return "a call to " + fn.Name() + " (may block: " + reason + ")", reason, true
	}
	return "", "", false
}

// stdBlocking classifies standard-library calls that block by contract.
func stdBlocking(fn *types.Func) (string, bool) {
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		if name == "Sleep" {
			return "time.Sleep", true
		}
	case "sync":
		// (*sync.WaitGroup).Wait and (*sync.Cond).Wait. (Mutex Lock/RLock
		// are handled as region openers, not reported as blocking — a
		// nested lock is a lock-ordering question, not a hold-across-block
		// one.)
		if name == "Wait" {
			return "(sync)." + recvTypeName(fn) + ".Wait", true
		}
	case "net/http":
		switch name {
		case "Do", "Get", "Post", "PostForm", "Head":
			return "an http round-trip (http." + name + ")", true
		}
	case "net":
		if strings.HasPrefix(name, "Dial") || name == "Accept" {
			return "net." + name, true
		}
	case "os/exec":
		switch name {
		case "Run", "Wait", "Output", "CombinedOutput":
			return "(os/exec.Cmd)." + name, true
		}
	}
	return "", false
}

func recvTypeName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(interface{ Obj() *types.TypeName }); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// mutexCall reports the receiver expression and method name when call is a
// sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock (including promoted calls on
// an embedded mutex).
func mutexCall(pass *analysis.Pass, call *ast.CallExpr) (recv, method string, ok bool) {
	fn, isFn := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	if !isMutexRecv(fn) {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	return types.ExprString(sel.X), fn.Name(), true
}

func isMutexRecv(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(interface{ Obj() *types.TypeName })
	if !ok {
		return false
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}
