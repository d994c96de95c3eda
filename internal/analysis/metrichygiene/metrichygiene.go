// Package metrichygiene implements the collsellint analyzer that pins the
// hand-rolled Prometheus exposition surface.
//
// collseld renders /metrics without a client library: `# TYPE` lines are
// format strings and counters are atomic.Int64 fields. That keeps the
// binary dependency-free, but nothing stops a refactor from silently
// breaking the scrapers (cluster_smoke.sh, the chaos suite, operator
// dashboards). The analyzer derives the metric registry from the source
// and enforces:
//
//  1. naming — every metric matches collseld_[a-z0-9_]+; counters end in
//     _total, histograms in _seconds, gauges never end in _total;
//  2. single registration — a metric name is declared (`# TYPE`) at most
//     once per package, with one kind;
//  3. fixed label sets — label keys inside a `name{...}` exposition string
//     are literals, never format verbs (dynamic keys break aggregation);
//  4. monotonic counters — an atomic field rendered as a counter is never
//     Store'd, Swap'ed or Add'ed a negative value.
//
// Metric declarations are recognized in two shapes: a `# TYPE <name>
// <kind>` literal, and a call with a literal name as first argument to an
// emitter — a local closure, function or method whose own body prints
// `# TYPE %s <kind>`, like the `e.counter(...)` / `e.gauge(...)` methods
// internal/serve/metrics.go uses. Genuine exceptions carry
// //collsel:metric <why>.
package metrichygiene

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"collsel/internal/analysis/annotation"
)

var Analyzer = &analysis.Analyzer{
	Name:     "metrichygiene",
	Doc:      "hand-rolled Prometheus metrics: enforce collseld_* naming, single registration, fixed label sets and monotonic counters",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var namePrefix string

func init() {
	Analyzer.Flags.StringVar(&namePrefix, "prefix", "collseld_",
		"required metric name prefix")
	annotation.RegisterAuditFlag(&Analyzer.Flags)
}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// decl is one `# TYPE` registration discovered in the package.
type decl struct {
	name string
	kind string // counter, gauge, histogram, summary
	pos  token.Pos
	end  token.Pos
	lit  *ast.BasicLit // exact name literal when the decl came from an emitter call (for suggested fixes)
	call *ast.CallExpr // the emitter call, if any (for counter-backing extraction)
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
		anns[tf] = annotation.Collect(pass.Fset, f)
	}
	ann := func(p token.Pos) *annotation.File { return anns[pass.Fset.File(p)] }

	// Emitters: variables bound to a func literal, and declared functions
	// and methods, whose own body prints a `# TYPE %s <kind>` template.
	// Calls through them declare metrics.
	emitters := make(map[types.Object]string) // var or func -> kind
	addEmitter := func(id *ast.Ident, body *ast.BlockStmt) {
		if kind := emitterKind(body); kind != "" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				emitters[obj] = kind
			}
		}
	}
	ins.Preorder([]ast.Node{(*ast.AssignStmt)(nil), (*ast.FuncDecl)(nil)}, func(n ast.Node) {
		if skip[pass.Fset.File(n.Pos())] {
			return
		}
		if fd, ok := n.(*ast.FuncDecl); ok {
			if fd.Body != nil {
				addEmitter(fd.Name, fd.Body)
			}
			return
		}
		as := n.(*ast.AssignStmt)
		for i, rhs := range as.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok || i >= len(as.Lhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				addEmitter(id, lit.Body)
			}
		}
	})

	var decls []decl
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil), (*ast.BasicLit)(nil)}, func(n ast.Node) {
		if skip[pass.Fset.File(n.Pos())] {
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			var id *ast.Ident
			switch fn := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				id = fn
			case *ast.SelectorExpr:
				id = fn.Sel
			default:
				return
			}
			kind, ok := emitters[pass.TypesInfo.ObjectOf(id)]
			if !ok || len(n.Args) == 0 {
				return
			}
			bl, ok := ast.Unparen(n.Args[0]).(*ast.BasicLit)
			if !ok || bl.Kind != token.STRING {
				if !ann(n.Pos()).Suppressed(pass, "metric", n.Pos(), n.End()) {
					pass.Reportf(n.Args[0].Pos(),
						"metric name must be a string literal so the exposition surface is statically known (//collsel:metric <why> to allow)")
				}
				return
			}
			name, err := strconv.Unquote(bl.Value)
			if err != nil {
				return
			}
			decls = append(decls, decl{name: name, kind: kind, pos: n.Pos(), end: n.End(), lit: bl, call: n})
		case *ast.BasicLit:
			if n.Kind != token.STRING {
				return
			}
			s, err := strconv.Unquote(n.Value)
			if err != nil {
				return
			}
			for _, d := range literalDecls(s) {
				decls = append(decls, decl{name: d[0], kind: d[1], pos: n.Pos(), end: n.End()})
			}
			checkLabels(pass, n, s, ann(n.Pos()))
		}
	})

	sort.SliceStable(decls, func(i, j int) bool { return decls[i].pos < decls[j].pos })

	// Rules 1 and 2: naming and single registration.
	first := make(map[string]decl)
	for _, d := range decls {
		a := ann(d.pos)
		base, ok := strings.CutPrefix(d.name, namePrefix)
		switch {
		case !ok || !nameRE.MatchString(base):
			if !a.Suppressed(pass, "metric", d.pos, d.end) {
				pass.Reportf(d.pos, "metric %q must match %s[a-z0-9_]+ (//collsel:metric <why> to allow)", d.name, namePrefix)
			}
		case d.kind == "counter" && !strings.HasSuffix(d.name, "_total"):
			if !a.Suppressed(pass, "metric", d.pos, d.end) {
				diag := analysis.Diagnostic{
					Pos: d.pos,
					Message: "counter " + strconv.Quote(d.name) +
						" must end in _total (//collsel:metric <why> to allow)",
				}
				if d.lit != nil {
					fixed := strconv.Quote(d.name + "_total")
					diag.SuggestedFixes = []analysis.SuggestedFix{{
						Message:   "rename to " + d.name + "_total",
						TextEdits: []analysis.TextEdit{{Pos: d.lit.Pos(), End: d.lit.End(), NewText: []byte(fixed)}},
					}}
				}
				pass.Report(diag)
			}
		case d.kind == "histogram" && !strings.HasSuffix(d.name, "_seconds"):
			if !a.Suppressed(pass, "metric", d.pos, d.end) {
				pass.Reportf(d.pos, "histogram %q must end in _seconds (//collsel:metric <why> to allow)", d.name)
			}
		case d.kind == "gauge" && strings.HasSuffix(d.name, "_total"):
			if !a.Suppressed(pass, "metric", d.pos, d.end) {
				pass.Reportf(d.pos, "gauge %q must not end in _total (that suffix promises a monotonic counter)", d.name)
			}
		}
		if prev, dup := first[d.name]; dup {
			if prev.kind != d.kind {
				pass.Reportf(d.pos, "metric %q re-registered as %s (first registered as %s at %s)",
					d.name, d.kind, prev.kind, pass.Fset.Position(prev.pos))
			} else if !ann(d.pos).Suppressed(pass, "metric", d.pos, d.end) {
				pass.Reportf(d.pos, "metric %q registered more than once (first at %s); a metric is declared exactly once per scrape",
					d.name, pass.Fset.Position(prev.pos))
			}
			continue
		}
		first[d.name] = d
	}

	// Rule 4: counters backed by an atomic field must stay monotonic.
	counterFields := make(map[types.Object]string) // atomic field var -> metric name
	for _, d := range decls {
		if d.kind != "counter" || d.call == nil {
			continue
		}
		for _, arg := range d.call.Args[1:] {
			if v := atomicLoadField(pass, arg); v != nil {
				counterFields[v] = d.name
			}
		}
	}
	if len(counterFields) > 0 {
		ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
			if skip[pass.Fset.File(n.Pos())] {
				return
			}
			call := n.(*ast.CallExpr)
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return
			}
			field := selectedField(pass, sel.X)
			name, backing := "", ""
			if field != nil {
				name, backing = counterFields[field], sel.Sel.Name
			}
			if name == "" {
				return
			}
			bad := ""
			switch backing {
			case "Store", "Swap":
				bad = backing + " on"
			case "Add", "Sub":
				if backing == "Sub" {
					bad = "Sub on"
				} else if v, ok := constValue(pass, call.Args); ok && v < 0 {
					bad = "negative Add on"
				}
			}
			if bad == "" {
				return
			}
			if !ann(n.Pos()).Suppressed(pass, "metric", call.Pos(), call.End()) {
				pass.Reportf(call.Pos(),
					"%s counter-backing field for %q: counters are monotonic — rates computed from a decremented counter go negative (//collsel:metric <why> to allow)",
					bad, name)
			}
		})
	}
	return nil, nil
}

// emitterKind returns the kind of the `# TYPE %s <kind>` template body
// prints, or "" if it prints none. Nested func literals are separate
// emitters and are not searched.
func emitterKind(body *ast.BlockStmt) string {
	kind := ""
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				if s, err := strconv.Unquote(n.Value); err == nil {
					if k := typeKindOf(s, "%s"); k != "" {
						kind = k
					}
				}
			}
		}
		return kind == ""
	})
	return kind
}

// typeKindOf extracts the kind from a `# TYPE <name> <kind>` line where
// <name> equals the given token (a literal name or a format verb).
func typeKindOf(s, name string) string {
	for _, line := range strings.Split(s, "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		n, kind, ok := strings.Cut(rest, " ")
		if ok && n == name {
			return strings.TrimSpace(kind)
		}
	}
	return ""
}

// literalDecls extracts (name, kind) pairs from `# TYPE` lines whose name
// is fully literal (no format verb — those declare through an emitter).
func literalDecls(s string) [][2]string {
	var out [][2]string
	for _, line := range strings.Split(s, "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, kind, ok := strings.Cut(rest, " ")
		if !ok || strings.Contains(name, "%") {
			continue
		}
		out = append(out, [2]string{name, strings.TrimSpace(kind)})
	}
	return out
}

// checkLabels flags format verbs used as label *keys* in an exposition
// string: `m{key=%q}` is a fixed label set, `m{%s=%q}` is not.
func checkLabels(pass *analysis.Pass, lit *ast.BasicLit, s string, ann *annotation.File) {
	for _, line := range strings.Split(s, "\n") {
		open := strings.IndexByte(line, '{')
		if open < 0 || !strings.Contains(line[:open], "collseld_") {
			continue
		}
		close := strings.IndexByte(line[open:], '}')
		if close < 0 {
			continue
		}
		for _, pair := range strings.Split(line[open+1:open+close], ",") {
			key, _, ok := strings.Cut(pair, "=")
			if ok && strings.Contains(key, "%") {
				if !ann.Suppressed(pass, "metric", lit.Pos(), lit.End()) {
					pass.Reportf(lit.Pos(),
						"dynamic label key %q in metric exposition: label sets must be fixed at compile time (//collsel:metric <why> to allow)",
						strings.TrimSpace(key))
				}
				return
			}
		}
	}
}

// atomicLoadField returns the struct-field var when arg is a
// `<expr>.<field>.Load()` call on a sync/atomic integer — the idiom that
// binds an atomic field to the metric it backs.
func atomicLoadField(pass *analysis.Pass, arg ast.Expr) types.Object {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Name() != "Load" {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return selectedField(pass, sel.X)
}

// selectedField resolves expr to the struct-field object it selects, if
// any (`m.tableHits` -> the tableHits *types.Var).
func selectedField(pass *analysis.Pass, expr ast.Expr) types.Object {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.ObjectOf(sel.Sel)
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// constValue extracts the first argument's constant integer value.
func constValue(pass *analysis.Pass, args []ast.Expr) (int64, bool) {
	if len(args) == 0 {
		return 0, false
	}
	tv, ok := pass.TypesInfo.Types[args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, ok := constant.Int64Val(tv.Value)
	return v, ok
}
