// Package ctxplumb implements the collsellint analyzer that enforces
// context plumbing: a function that receives a context.Context must thread
// that context, not manufacture a fresh root or silently drop it.
//
// This is exactly the bug class PR 4's deadline work fixed by hand across
// six layers (serve → expt → runner → microbench → mpi → sim): one callee
// in the chain calling context.Background(), or calling the non-Ctx
// variant of an API, disconnects every deadline and cancellation above it.
//
// Two rules apply inside any function (or closure) with a context.Context
// in scope — a context.Context parameter, or an *http.Request parameter,
// whose Context method carries the request's deadline — in non-test code:
//
//  1. no context.Background() / context.TODO() — derive from the received
//     context instead;
//  2. no call to a function F when its package also exports FCtx with a
//     leading context.Context parameter (the repo's convention for
//     context-aware variants: Select/SelectCtx, BuildMatrix/BuildMatrixCtx,
//     RunFig4/RunFig4Ctx, ...) — call FCtx with the received context.
//
// Intentional detachment — e.g. background work that must survive the
// cancellation of the request that started it — is annotated in place with
// //collsel:ctx <why>.
package ctxplumb

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
	Name:     "ctxplumb",
	Doc:      "a function that receives a context.Context must plumb it: no fresh context roots, no calls to the non-Ctx variant of an API",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func init() { annotation.RegisterAuditFlag(&Analyzer.Flags) }

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

	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		tf := pass.Fset.File(n.Pos())
		if skip[tf] {
			return false
		}
		if !ctxInScope(pass, stack) {
			return true
		}
		checkCall(pass, n.(*ast.CallExpr), anns[tf])
		return true
	})
	return nil, nil
}

// ctxInScope reports whether any enclosing function on the traversal stack
// declares a context.Context parameter — or an *http.Request one, whose
// Context method carries the request's deadline. Closures inherit the
// context of their enclosing function: a fresh root inside a closure
// detaches the surrounding request's deadline all the same.
func ctxInScope(pass *analysis.Pass, stack []ast.Node) bool {
	for _, n := range stack {
		var ft *ast.FuncType
		switch n := n.(type) {
		case *ast.FuncDecl:
			ft = n.Type
		case *ast.FuncLit:
			ft = n.Type
		default:
			continue
		}
		for _, field := range ft.Params.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if isContextType(t) || isHTTPRequestPtr(t) {
				return true
			}
		}
	}
	return false
}

func isHTTPRequestPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(interface {
		Obj() *types.TypeName
	})
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

func isContextType(t types.Type) bool {
	named, ok := t.(interface {
		Obj() *types.TypeName
	})
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, ann *annotation.File) {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig := fn.Type().(*types.Signature)

	if fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
		if !ann.Suppressed(pass, "ctx", call.Pos(), call.End()) {
			pass.Reportf(call.Pos(),
				"context.%s inside a function that already receives a context (ctx or *http.Request): derive from it so deadlines and cancellation propagate (//collsel:ctx <why> to detach intentionally)",
				fn.Name())
		}
		return
	}

	// Rule 2: calling F when FCtx exists drops the caller's context.
	if sig.Recv() != nil || strings.HasSuffix(fn.Name(), "Ctx") || hasContextParam(sig) {
		return
	}
	sibling, ok := fn.Pkg().Scope().Lookup(fn.Name() + "Ctx").(*types.Func)
	if !ok {
		return
	}
	ssig := sibling.Type().(*types.Signature)
	if ssig.Params().Len() == 0 || !isContextType(ssig.Params().At(0).Type()) {
		return
	}
	if !ann.Suppressed(pass, "ctx", call.Pos(), call.End()) {
		pass.Reportf(call.Pos(),
			"%s.%s drops the caller's context: call %s with the received ctx instead (//collsel:ctx <why> to allow)",
			fn.Pkg().Name(), fn.Name(), sibling.Name())
	}
}

func hasContextParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}
