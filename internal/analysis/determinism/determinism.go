// Package determinism implements the collsellint analyzer that keeps the
// simulation core bit-reproducible.
//
// The paper's methodology rests on controlled, reproducible skew: a
// selection for a given seed must be bit-identical across runs, worker
// counts and machines. Three failure classes silently break that:
//
//  1. wall clock — time.Now/time.Since/time.Until leaking into simulated
//     results or compiled artifacts;
//  2. ambient randomness — the process-global math/rand RNG, which is not
//     derived from the (seed, coordinate) scheme PR 1 introduced;
//  3. map iteration order — ranging over a map and letting the iteration
//     order reach an output, a hash or a collected slice that is never
//     sorted.
//
// The analyzer enforces all three inside the simulation-core packages
// (see DefaultScope). Genuine exceptions are annotated in place:
// //collsel:wallclock <why> and //collsel:unordered <why>. A directive
// without a justification suppresses nothing and is itself reported, as is
// a //collsel: directive with an unknown verb (this analyzer audits the
// directive namespace for the whole suite, in every package).
package determinism

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

// DefaultScope lists the package-path suffixes whose code must be
// deterministic: everything that produces or transforms simulated
// measurements, compiled artifacts or selection decisions. The serving
// layer (internal/serve, cmd/...) legitimately reads the wall clock and is
// out of scope.
var DefaultScope = []string{
	"internal/sim",
	"internal/sim/eventq",
	"internal/coll",
	"internal/core",
	"internal/mpi",
	"internal/microbench",
	"internal/netmodel",
	"internal/pattern",
	"internal/prand",
	"internal/noise",
	"internal/clocksync",
	"internal/fault",
	"internal/runner",
	"internal/store",
	"internal/decision",
	"internal/expt",
	// The analytical model tier prunes grids and answers cold misses: a
	// nondeterministic cost estimate would flap served selections and
	// desynchronize pruned artifacts from their provenance.
	"internal/model",
	"internal/table",
	"internal/stats",
	"internal/papaware",
	// The feedback loop recompiles artifacts from observations: its
	// aggregation, digests and recompile seeds must replay bit-identically,
	// so it lives under the same determinism contract as the compiler
	// (Quiesce's polling timer is fine; wall-clock reads are not).
	"internal/feedback",
	// The replication layer routes by consistent hash and demotes peers by
	// failure counts: every replica must reach the same owner for the same
	// key, and the chaos suite replays the health machine on a fake clock —
	// both break if wall-clock reads or ambient randomness sneak in (the
	// injectable clock's production default is annotated in place).
	"internal/cluster",
}

var Analyzer = &analysis.Analyzer{
	Name:     "determinism",
	Doc:      "forbid wall-clock reads, global math/rand and order-leaking map iteration in the simulation core",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var scopeFlag string

func init() {
	Analyzer.Flags.StringVar(&scopeFlag, "scope", strings.Join(DefaultScope, ","),
		"comma-separated package-path suffixes the determinism rules apply to")
	annotation.RegisterAuditFlag(&Analyzer.Flags)
}

func inScope(path string) bool {
	for _, s := range strings.Split(scopeFlag, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// randConstructors are the math/rand functions that build a locally seeded
// generator instead of touching the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

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
		ann := annotation.Collect(pass.Fset, f)
		anns[tf] = ann
		auditDirectives(pass, ann)
	}

	if !inScope(pass.Pkg.Path()) {
		return nil, nil
	}

	nodes := []ast.Node{(*ast.CallExpr)(nil), (*ast.RangeStmt)(nil)}
	ins.WithStack(nodes, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		tf := pass.Fset.File(n.Pos())
		if skip[tf] {
			return false
		}
		ann := anns[tf]
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n, ann)
		case *ast.RangeStmt:
			checkMapRange(pass, n, ann, stack)
		}
		return true
	})
	return nil, nil
}

// auditDirectives enforces the directive grammar everywhere: unknown verbs
// and missing justifications are findings regardless of package scope.
// Verbs owned by the other analyzers are justified-checked here too, so
// one analyzer owns the whole //collsel: namespace.
func auditDirectives(pass *analysis.Pass, ann *annotation.File) {
	for _, d := range ann.All() {
		switch {
		case !annotation.Known(d.Verb):
			pass.Reportf(d.Pos, "unknown //collsel:%s directive (known verbs: %s)",
				d.Verb, strings.Join(annotation.Verbs, ", "))
		case d.Justification == "":
			pass.Reportf(d.Pos, "//collsel:%s directive requires a justification string", d.Verb)
		}
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, ann *annotation.File) {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			if !ann.Suppressed(pass, "wallclock", call.Pos(), call.End()) {
				pass.Reportf(call.Pos(),
					"wall clock in deterministic code: time.%s makes results irreproducible; derive timing from virtual time or inject a clock (//collsel:wallclock <why> to allow)",
					fn.Name())
			}
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() != nil || randConstructors[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(),
			"global math/rand RNG in deterministic code: rand.%s is not derived from the coordinate seed; use rand.New(rand.NewSource(seed))",
			fn.Name())
	}
}

// checkMapRange flags `range` over a map whose iteration order escapes: the
// body writes to an output sink, or it appends to a slice declared outside
// the loop that is never sorted afterwards in the enclosing functions.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, ann *annotation.File, stack []ast.Node) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if ann.Suppressed(pass, "unordered", rs.Pos(), rs.End()) {
		return
	}

	var collected []types.Object // outer slices appended to inside the body
	sink := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name := sinkName(pass, n); name != "" && sink == "" {
				sink = name
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(id)
				if obj != nil && obj.Pos().IsValid() &&
					(obj.Pos() < rs.Pos() || obj.Pos() > rs.End()) {
					collected = append(collected, obj)
				}
			}
		}
		return true
	})

	if sink != "" {
		pass.Reportf(rs.Pos(),
			"map iteration order reaches output: %s inside `range` over %s emits in nondeterministic order; collect and sort keys first (//collsel:unordered <why> to allow)",
			sink, types.TypeString(t, types.RelativeTo(pass.Pkg)))
		return
	}
	for _, obj := range collected {
		if !sortedAfter(pass, obj, rs, stack) {
			pass.Reportf(rs.Pos(),
				"map iteration order leaks into %q: slice collected from `range` over a map is never sorted in this function (//collsel:unordered <why> to allow)",
				obj.Name())
			return
		}
	}
}

// sinkName reports a human-readable name if call writes to an output or
// hash sink: the fmt print family, or a Write*/Encode method (io.Writer,
// strings.Builder, hash.Hash, json.Encoder, ...).
func sinkName(pass *analysis.Pass, call *ast.CallExpr) string {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + fn.Name()
		}
	}
	if sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
			return "(" + types.TypeString(sig.Recv().Type(), nil) + ")." + fn.Name()
		}
	}
	return ""
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether obj appears as an argument to a sort call
// positioned after the range statement inside one of the enclosing
// function bodies on the traversal stack.
func sortedAfter(pass *analysis.Pass, obj types.Object, rs *ast.RangeStmt, stack []ast.Node) bool {
	found := false
	for _, n := range stack {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		default:
			continue
		}
		if body == nil {
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() < rs.End() {
				return true
			}
			fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
			if !ok || fn.Pkg() == nil || !isSortFunc(fn) {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
						found = true
					}
					return !found
				})
			}
			return !found
		})
	}
	return found
}

func isSortFunc(fn *types.Func) bool {
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Strings", "Ints", "Float64s", "Slice", "SliceStable":
			return true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}
