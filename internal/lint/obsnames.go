package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
)

// ObsNames audits every metric registration against the internal/obs
// registry: the name argument must be a compile-time string constant (so
// the metric namespace is greppable and stable), must be snake_case, and
// must be unique across the whole module — two call sites registering the
// same family is either a copy-paste bug or hidden coupling, and the obs
// registry panics at runtime if their schemas ever drift.
//
// It enforces the same hygiene on trace span names (obs.Span and
// trace.Start): literal, dot-separated lowercase ("component.op" like
// "datastore.rule_eval"), and unique module-wide — a span name identifies
// exactly one instrumented operation, both in /debug/traces trees and in
// the sensorsafe_span_seconds histogram's "span" label.
//
// Outside internal/obs it also reports every trace.Start call: obs.Span
// is the one span entry point, so every span is both traced and timed in
// sensorsafe_span_seconds.
//
// The obs package and its trace subpackage are exempt: their wrappers
// forward name parameters by design.
var ObsNames = &Analyzer{
	Name: "obsnames",
	Doc:  "obs metric and span names must be literal, well-cased, and unique module-wide",
	AppliesTo: func(modulePath, pkgPath string) bool {
		return pkgPath != modulePath+"/internal/obs" &&
			pkgPath != modulePath+"/internal/obs/trace"
	},
	Run: runObsNames,
}

// obsRegistrars are the obs functions and Registry methods whose first
// argument is a metric family name.
var obsRegistrars = map[string]bool{
	"NewCounter": true, "NewCounterVec": true,
	"NewGauge": true, "NewGaugeVec": true,
	"NewHistogram": true, "NewHistogramVec": true,
	"Counter": true, "CounterVec": true,
	"Gauge": true, "GaugeVec": true,
	"Histogram": true, "HistogramVec": true,
}

// spanRegistrars are the functions whose second argument (after the
// context) names a trace span.
var spanRegistrars = map[string]bool{
	"Span":  true, // package obs
	"Start": true, // package obs/trace
}

var snakeCaseRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// spanNameRe: dot-separated lowercase segments, "component.op" at minimum
// (a bare word has no component and collides across subsystems).
var spanNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)

func runObsNames(pass *Pass) {
	seen, ok := pass.State["names"].(map[string]token.Position)
	if !ok {
		seen = make(map[string]token.Position)
		pass.State["names"] = seen
	}
	spansSeen, ok := pass.State["spans"].(map[string]token.Position)
	if !ok {
		spansSeen = make(map[string]token.Position)
		pass.State["spans"] = spansSeen
	}
	obsPath := pass.Module.Path + "/internal/obs"
	tracePath := obsPath + "/trace"
	inspectFuncs(pass.Pkg, func(n ast.Node, _ *ast.FuncDecl) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		fn, ok := calleeObj(pass.Pkg, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		switch pkg := fn.Pkg().Path(); {
		case pkg == obsPath && obsRegistrars[fn.Name()]:
			checkMetricName(pass, seen, fn.Name(), call.Args[0])
		case (pkg == obsPath || pkg == tracePath) && spanRegistrars[fn.Name()] && len(call.Args) >= 2:
			if pkg == tracePath {
				pass.Reportf(call.Pos(),
					"trace.Start outside internal/obs: use obs.Span, which both traces and times the span")
			}
			checkSpanName(pass, spansSeen, fn.Name(), call.Args[1])
		}
	})
}

func checkMetricName(pass *Pass, seen map[string]token.Position, fn string, arg ast.Expr) {
	tv := pass.Pkg.Info.Types[arg]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(),
			"metric name passed to obs.%s must be a compile-time string constant", fn)
		return
	}
	name := constant.StringVal(tv.Value)
	if !snakeCaseRe.MatchString(name) {
		pass.Reportf(arg.Pos(), "metric name %q is not snake_case", name)
		return
	}
	if first, dup := seen[name]; dup {
		pass.Reportf(arg.Pos(),
			"metric name %q already registered at %s; families must have exactly one registration site",
			name, first)
		return
	}
	seen[name] = pass.Module.Fset.Position(arg.Pos())
}

func checkSpanName(pass *Pass, seen map[string]token.Position, fn string, arg ast.Expr) {
	tv := pass.Pkg.Info.Types[arg]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(),
			"span name passed to %s must be a compile-time string constant", fn)
		return
	}
	name := constant.StringVal(tv.Value)
	if !spanNameRe.MatchString(name) {
		pass.Reportf(arg.Pos(),
			"span name %q is not dot-separated lowercase (want \"component.op\", e.g. \"datastore.rule_eval\")", name)
		return
	}
	if first, dup := seen[name]; dup {
		pass.Reportf(arg.Pos(),
			"span name %q already instrumented at %s; each span name identifies exactly one call site",
			name, first)
		return
	}
	seen[name] = pass.Module.Fset.Position(arg.Pos())
}
