package lint

import (
	"go/ast"
	"go/types"
)

// RuleIndexUse enforces the compiled-rule-index seam on release paths: the
// packages that evaluate privacy rules per request (internal/datastore,
// internal/stream, internal/broker, internal/httpapi,
// internal/federation) must decide through the rules.Decider facade,
// i.e. the compiled ruleindex.Index — never by calling
// (*rules.Engine).Decide directly. A direct engine call silently reverts
// a hot path to the linear scan, loses the memoized decision cache, and
// disappears from sensorsafe_ruleindex_decisions_total. Code
// with a sanctioned reason (e.g. a differential check) carries an
// //sslint:ignore ruleindexuse directive.
var RuleIndexUse = &Analyzer{
	Name: "ruleindexuse",
	Doc:  "release-path packages must evaluate rules via the compiled index facade, not rules.Engine.Decide",
	AppliesTo: func(modulePath, pkgPath string) bool {
		switch pkgPath {
		case modulePath + "/internal/datastore",
			modulePath + "/internal/stream",
			modulePath + "/internal/broker",
			modulePath + "/internal/httpapi",
			modulePath + "/internal/federation":
			return true
		}
		return false
	},
	Run: runRuleIndexUse,
}

func runRuleIndexUse(pass *Pass) {
	inspectFuncs(pass.Pkg, func(n ast.Node, _ *ast.FuncDecl) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Decide" {
			return
		}
		recv := pass.Pkg.Info.Types[sel.X].Type
		if recv == nil || !isRuleEngineType(pass, recv) {
			return
		}
		pass.Reportf(call.Pos(),
			"rules.Engine.Decide called directly on a release path; evaluate through the rule-index facade (ruleindex.Index / rules.Decider) so decisions are indexed, memoized, and counted")
	})
}

// isRuleEngineType reports whether t is rules.Engine or *rules.Engine.
// The rules.Decider interface deliberately does not match: deciding
// through the seam is the sanctioned path.
func isRuleEngineType(pass *Pass, t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pass.Module.Path+"/internal/rules" &&
		obj.Name() == "Engine"
}
