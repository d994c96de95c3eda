// Package statuscontract implements the collsellint analyzer that pins the
// HTTP status surface of the serving layer.
//
// DESIGN.md documents a status ladder per endpoint (200 served, 400
// malformed, 404 nothing to answer from, 503 unavailable, plus the
// endpoint-specific 202/405/409/413/422/429/500). Clients, the chaos suite and the
// cluster failover logic all branch on these codes; the fuzz tests can
// only sample the space, so an undocumented status is exactly the kind of
// regression that ships. The analyzer checks, inside the scoped packages:
//
//  1. every call to a response writer helper (httpError / writeJSON) names
//     a declared endpoint with a literal string, and passes a constant
//     status code drawn from that endpoint's contract;
//  2. raw status writes — (http.ResponseWriter).WriteHeader, http.Error,
//     http.NotFound — appear only inside the writer helpers themselves,
//     so every response is metered through countRequest.
//
// A dynamic code that is provably contract-bounded (healthz derives its
// code from the health state machine) is annotated //collsel:status <why>.
package statuscontract

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
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
	Name:     "statuscontract",
	Doc:      "HTTP handlers may only write status codes from the declared per-endpoint contract, through the metered writer helpers",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// DefaultContract is the documented status ladder, one entry per endpoint.
// It mirrors DESIGN.md's endpoint table; changing a handler's statuses
// means changing the contract (and the docs) in the same commit.
const DefaultContract = "select:200,400,404,503;" +
	"healthz:200,503;" +
	"reload:200,405,422;" +
	"observe:202,400,404,405,429,500,503;" +
	"peer_cell:200,400,404,405,409,413,503;" +
	"metrics:200"

var (
	scopeFlag    string
	writersFlag  string
	contractFlag string
)

func init() {
	Analyzer.Flags.StringVar(&scopeFlag, "scope", "internal/serve",
		"comma-separated package-path suffixes the status contract applies to")
	Analyzer.Flags.StringVar(&writersFlag, "writers", "httpError,writeJSON",
		"comma-separated method names that write metered HTTP responses (endpoint string and status code as 2nd and 3rd args)")
	Analyzer.Flags.StringVar(&contractFlag, "contract", DefaultContract,
		"per-endpoint status contract: endpoint:code,code;endpoint:code,...")
	annotation.RegisterAuditFlag(&Analyzer.Flags)
}

func inScope(path string) bool {
	for _, s := range strings.Split(scopeFlag, ",") {
		s = strings.TrimSpace(s)
		if s != "" && (path == s || strings.HasSuffix(path, "/"+s)) {
			return true
		}
	}
	return false
}

func parseContract() map[string]map[int64]bool {
	m := make(map[string]map[int64]bool)
	for _, ent := range strings.Split(contractFlag, ";") {
		name, codes, ok := strings.Cut(strings.TrimSpace(ent), ":")
		if !ok {
			continue
		}
		set := make(map[int64]bool)
		for _, c := range strings.Split(codes, ",") {
			if v, err := strconv.ParseInt(strings.TrimSpace(c), 10, 64); err == nil {
				set[v] = true
			}
		}
		m[name] = set
	}
	return m
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	contract := parseContract()

	writers := make(map[string]bool)
	for _, w := range strings.Split(writersFlag, ",") {
		writers[strings.TrimSpace(w)] = true
	}

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

	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		tf := pass.Fset.File(n.Pos())
		if skip[tf] {
			return false
		}
		call := n.(*ast.CallExpr)
		ann := anns[tf]

		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok {
			return true
		}

		if writers[fn.Name()] && fn.Pkg() == pass.Pkg {
			checkWriterCall(pass, call, fn, contract, ann)
			return true
		}
		checkRawWrite(pass, call, fn, writers, stack, ann)
		return true
	})
	return nil, nil
}

// checkWriterCall validates one httpError/writeJSON call: a literal known
// endpoint and a constant in-contract status code.
func checkWriterCall(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func,
	contract map[string]map[int64]bool, ann *annotation.File) {

	// Writer signature: (w, endpoint, code, ...).
	if len(call.Args) < 3 {
		return
	}
	epArg, codeArg := call.Args[1], call.Args[2]

	lit, ok := ast.Unparen(epArg).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		if !ann.Suppressed(pass, "status", call.Pos(), call.End()) {
			pass.Reportf(epArg.Pos(),
				"endpoint passed to %s must be a string literal so the status contract is statically checkable (//collsel:status <why> to allow)",
				fn.Name())
		}
		return
	}
	endpoint, _ := strconv.Unquote(lit.Value)
	allowed, known := contract[endpoint]
	if !known {
		if !ann.Suppressed(pass, "status", call.Pos(), call.End()) {
			pass.Reportf(epArg.Pos(),
				"endpoint %q has no declared status contract; add it to the -contract spec (known: %s)",
				endpoint, strings.Join(sortedKeys(contract), ", "))
		}
		return
	}

	tv, ok := pass.TypesInfo.Types[codeArg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		if !ann.Suppressed(pass, "status", call.Pos(), call.End()) {
			pass.Reportf(codeArg.Pos(),
				"non-constant status code for endpoint %q: the contract cannot be checked statically (//collsel:status <why it stays in contract> to allow)",
				endpoint)
		}
		return
	}
	code, _ := constant.Int64Val(tv.Value)
	if !allowed[code] {
		if !ann.Suppressed(pass, "status", call.Pos(), call.End()) {
			pass.Reportf(codeArg.Pos(),
				"status %d is outside endpoint %q's contract (%s); extend the contract and DESIGN.md, or fix the handler (//collsel:status <why> to allow)",
				code, endpoint, codeSet(allowed))
		}
	}
}

// checkRawWrite flags WriteHeader / http.Error / http.NotFound outside the
// writer helpers: an unmetered response that bypasses countRequest.
func checkRawWrite(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func,
	writers map[string]bool, stack []ast.Node, ann *annotation.File) {

	raw := ""
	switch {
	case fn.Name() == "WriteHeader" && isResponseWriterMethod(pass, call):
		raw = "WriteHeader"
	case fn.Pkg() != nil && fn.Pkg().Path() == "net/http" &&
		(fn.Name() == "Error" || fn.Name() == "NotFound" || fn.Name() == "Redirect"):
		raw = "http." + fn.Name()
	default:
		return
	}
	for _, n := range stack {
		if d, ok := n.(*ast.FuncDecl); ok && writers[d.Name.Name] {
			return // the helper's own implementation
		}
	}
	if !ann.Suppressed(pass, "status", call.Pos(), call.End()) {
		pass.Reportf(call.Pos(),
			"raw %s bypasses the metered writer helpers (httpError/writeJSON meter every response through countRequest); use a helper (//collsel:status <why> to allow)",
			raw)
	}
}

// isResponseWriterMethod reports whether the call's receiver implements
// http.ResponseWriter's WriteHeader(int) shape.
func isResponseWriterMethod(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	// Either the http.ResponseWriter interface itself or a concrete
	// recorder; the method name plus an int parameter is decisive enough
	// inside the scoped packages.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	return ok && sig.Params().Len() == 1 &&
		types.Identical(sig.Params().At(0).Type(), types.Typ[types.Int])
}

func sortedKeys(m map[string]map[int64]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func codeSet(m map[int64]bool) string {
	codes := make([]int, 0, len(m))
	for c := range m {
		codes = append(codes, int(c))
	}
	sort.Ints(codes)
	parts := make([]string, len(codes))
	for i, c := range codes {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, "/")
}
