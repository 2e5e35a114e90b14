package lint

import (
	"go/ast"
	"go/types"
)

// ServerTimeouts flags http.Server composite literals that do not set
// ReadHeaderTimeout, and bare http.ListenAndServe / http.ListenAndServeTLS
// calls (which construct an unconfigurable Server internally). A server
// without ReadHeaderTimeout holds a connection open for as long as a
// client cares to dribble header bytes — the classic slowloris resource
// exhaustion — so every SensorSafe listener must bound it. The binaries'
// write deadline is the WriteTimeout that httpapi.NewServer sets; it is
// not required here yet, because the benchmark's in-process store server
// (bench/ladder.go) does not set it.
var ServerTimeouts = &Analyzer{
	Name: "servertimeouts",
	Doc:  "http.Server literals must set ReadHeaderTimeout (slowloris hardening); bare http.ListenAndServe cannot",
	Run:  runServerTimeouts,
}

func runServerTimeouts(pass *Pass) {
	inspectFuncs(pass.Pkg, func(n ast.Node, enclosing *ast.FuncDecl) {
		switch node := n.(type) {
		case *ast.CompositeLit:
			checkServerLit(pass, node)
		case *ast.CallExpr:
			checkBareListen(pass, node)
		}
	})
}

// checkServerLit flags net/http.Server composite literals missing the
// ReadHeaderTimeout key.
func checkServerLit(pass *Pass, cl *ast.CompositeLit) {
	tv, ok := pass.Pkg.Info.Types[ast.Expr(cl)]
	if !ok || !isNetHTTPServer(tv.Type) {
		return
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			// Positional Server literals don't occur in practice; a keyless
			// literal that somehow sets every field is out of scope.
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "ReadHeaderTimeout" {
			return
		}
	}
	pass.Reportf(cl.Pos(),
		"http.Server literal without ReadHeaderTimeout is open to slowloris header dribble; set ReadHeaderTimeout (and ReadTimeout/IdleTimeout)")
}

// checkBareListen flags package-level http.ListenAndServe(TLS) calls: they
// build an http.Server with no timeouts at all and offer no way to add
// them.
func checkBareListen(pass *Pass, call *ast.CallExpr) {
	fn, ok := calleeObj(pass.Pkg, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
		return
	}
	if fn.Name() != "ListenAndServe" && fn.Name() != "ListenAndServeTLS" {
		return
	}
	// Method forms (srv.ListenAndServe) carry the Server's own timeouts and
	// are fine; only the package-level helpers are condemned.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	pass.Reportf(call.Pos(),
		"http.%s builds a Server with no timeouts; construct an http.Server with ReadHeaderTimeout and call its ListenAndServe", fn.Name())
}

// isNetHTTPServer reports whether t is net/http.Server (possibly through
// a pointer).
func isNetHTTPServer(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "net/http" && obj.Name() == "Server"
}
