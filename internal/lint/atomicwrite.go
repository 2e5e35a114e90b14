package lint

import (
	"go/ast"
	"go/types"
)

// AtomicWrite flags direct os.WriteFile / os.Create calls. Every durable
// state or outbox file in SensorSafe that is written whole must go
// through resilience.WriteFileAtomic (temp file + fsync + rename) so a
// crash mid-write never leaves a truncated JSON state file behind. The
// one other sanctioned durable-write scheme is the framed append log:
// files opened for appending (os.OpenFile with O_APPEND), whose records
// are internal/walframe frames a replay can tell from a torn tail, as
// segstore's WAL is, and as the datastore's cursor log and the broker's
// log are through walframe.Log, which alone opens, fsyncs and truncates
// them. The only function
// allowed to touch the raw APIs is an atomic-write helper itself (a
// function named WriteFileAtomic).
var AtomicWrite = &Analyzer{
	Name: "atomicwrite",
	Doc:  "direct os.WriteFile/os.Create calls bypass crash-safe persistence; use resilience.WriteFileAtomic",
	Run:  runAtomicWrite,
}

func runAtomicWrite(pass *Pass) {
	inspectFuncs(pass.Pkg, func(n ast.Node, enclosing *ast.FuncDecl) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn, ok := calleeObj(pass.Pkg, call).(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return
		}
		if fn.Name() != "WriteFile" && fn.Name() != "Create" {
			return
		}
		if enclosing != nil && enclosing.Name.Name == "WriteFileAtomic" {
			return
		}
		pass.Reportf(call.Pos(),
			"os.%s is not crash-safe for durable state; use resilience.WriteFileAtomic (temp file + fsync + rename)",
			fn.Name())
	})
}
