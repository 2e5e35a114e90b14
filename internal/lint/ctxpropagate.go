package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPropagate enforces context threading below cmd/: library code must
// not mint fresh contexts with context.Background() or context.TODO(),
// which sever the caller's deadline, cancellation and trace. Every
// library call takes the caller's ctx; a genuine call-tree root (a
// background maintenance round, a service's lifetime) says so with an
// //sslint:ignore ctxpropagate directive and its reason.
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "library code must propagate request contexts instead of minting context.Background()",
	AppliesTo: func(modulePath, pkgPath string) bool {
		return strings.HasPrefix(pkgPath, modulePath+"/internal/")
	},
	Run: runCtxPropagate,
}

func runCtxPropagate(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := calleeObj(pass.Pkg, call).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if fn.Name() == "Background" || fn.Name() == "TODO" {
				pass.Reportf(call.Pos(),
					"context.%s() in library code severs deadline/cancellation propagation; thread the caller's ctx",
					fn.Name())
			}
			return true
		})
	}
}
