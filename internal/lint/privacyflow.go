package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// PrivacyFlow polices SensorSafe's core guarantee — raw wave segments
// reach a consumer only through the rule match → dependency closure →
// abstraction pipeline — interprocedurally, over the module-wide call
// graph. It subsumes the retired intraprocedural releasepath analyzer.
//
// The taint model:
//
//   - Sources: raw-segment producers — every call into internal/storage
//     or internal/segstore (engine scans, block decodes), the
//     wavesegment decoders (byte → Segment), and wavesegment.Segment
//     composite literals outside the codec package.
//   - Sanitizers: the release pipeline — internal/abstraction
//     (Apply/EnforceExplained return Release values) and internal/rules decisions.
//     Their results are clean by definition; that is the invariant the
//     rest of the analysis enforces.
//   - Sinks: consumer-facing egress — composite literals and field writes
//     of response-named struct shapes (*Resp/*Response/*Reply/*Event/
//     *Batch/*Result) in internal/httpapi, internal/stream, and
//     internal/federation, plus values handed to writeJSON.
//
// Any demonstrated source→sink path that does not cross a sanitizer is a
// finding, reported with the full call chain (a.go:12 → b.go:40 → ...).
// Per-function summaries (see summary.go) propagate taint through helper
// calls, interface dispatch (method-set matched implementations), and
// recursion (fixpoint over call-graph SCCs).
//
// Two coarse per-package rules from releasepath are retained verbatim:
// consumer-facing packages must not import internal/storage at all, and
// must not call raw storage accessors (datastore.Service.Storage, any
// storage.Store method). The single sanctioned raw egress, the owner-only
// /api/queryown handler, carries an //sslint:ignore privacyflow directive
// documenting why it is safe.
var PrivacyFlow = &Analyzer{
	Name:      "privacyflow",
	Doc:       "raw wave segments must not reach consumer egress without passing the abstraction release pipeline (interprocedural taint)",
	AppliesTo: privacyFlowApplies,
	Run:       runPrivacyFlow,
}

func privacyFlowApplies(modulePath, pkgPath string) bool {
	switch pkgPath {
	case modulePath + "/internal/httpapi",
		modulePath + "/internal/stream",
		modulePath + "/internal/federation":
		return true
	}
	return false
}

var responseTypeRe = regexp.MustCompile(`(Resp|Response|Reply|Event|Batch|Result)$`)

func runPrivacyFlow(pass *Pass) {
	// Per-package rules, identical to the retired releasepath analyzer.
	storagePath := pass.Module.Path + "/internal/storage"
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == storagePath {
				pass.Reportf(imp.Pos(),
					"consumer-facing package imports %s; raw segment storage is private to the datastore", storagePath)
			}
		}
	}
	inspectFuncs(pass.Pkg, func(n ast.Node, _ *ast.FuncDecl) {
		if call, ok := n.(*ast.CallExpr); ok {
			checkRawAccessor(pass, call, storagePath)
		}
	})

	// Interprocedural taint findings, computed once per run over the
	// analysis universe and attributed to packages by sink position.
	eng := pfEngineFor(pass)
	for _, f := range eng.findings[pass.Pkg] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
	if !eng.orphansDone {
		eng.orphansDone = true
		for _, f := range eng.orphans {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// checkRawAccessor flags calls that reach the raw segment substrate.
func checkRawAccessor(pass *Pass, call *ast.CallExpr, storagePath string) {
	fn, ok := calleeObj(pass.Pkg, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == storagePath {
		pass.Reportf(call.Pos(),
			"call to storage.%s bypasses the abstraction release pipeline", fn.Name())
		return
	}
	if fn.Name() == "Storage" && fn.Pkg().Path() == pass.Module.Path+"/internal/datastore" {
		pass.Reportf(call.Pos(),
			"datastore.Storage() exposes the raw segment store; consumer-facing code must use the release pipeline (Query/abstraction.Release)")
	}
}

// engFinding is one engine-produced finding, attributed to a package and
// reported by that package's pass.
type engFinding struct {
	pos token.Pos
	msg string
}

// pfEngine runs the interprocedural taint analysis once per analyzer run.
type pfEngine struct {
	m *Module
	g *CallGraph

	summaries map[*types.Func]*pfSummary
	envs      map[*CGNode]*pfEnv
	carryMemo map[types.Type]bool

	findings map[*Package][]engFinding
	// orphans are findings in packages the analyzer is not scheduled on
	// (a non-consumer package building a consumer response shape); the
	// first pass of the run reports them.
	orphans     []engFinding
	orphansDone bool
}

// pfEngineFor builds (or fetches from the run's shared State) the taint
// engine over pass.Universe.
func pfEngineFor(pass *Pass) *pfEngine {
	if eng, ok := pass.State["privacyflow.engine"].(*pfEngine); ok {
		return eng
	}
	universe := pass.Universe
	if len(universe) == 0 {
		universe = []*Package{pass.Pkg}
	}
	eng := &pfEngine{
		m:         pass.Module,
		g:         pass.Module.CallGraphFor(universe),
		summaries: make(map[*types.Func]*pfSummary),
		envs:      make(map[*CGNode]*pfEnv),
		carryMemo: make(map[types.Type]bool),
		findings:  make(map[*Package][]engFinding),
	}
	eng.g.Fixpoint(eng.summarize)
	eng.report()
	pass.State["privacyflow.engine"] = eng
	return eng
}

// carries reports whether a value of type t can transport raw segment
// data: the Segment type itself, containers of it, and struct shapes
// with a segment-carrying field (transitively). Interfaces, function
// types, and basic types do not carry — the model is optimistic, and
// treating every interface value as a potential segment container would
// taint engine handles (storage.Engine) and the service objects built
// around them, flooding cmd/ wiring with phantom flows.
func (eng *pfEngine) carries(t types.Type) bool {
	return eng.carriesRec(t, nil)
}

func (eng *pfEngine) carriesRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil {
		return true // no type info: keep the taint rather than guess
	}
	if v, ok := eng.carryMemo[t]; ok {
		return v
	}
	top := seen == nil
	if top {
		seen = make(map[types.Type]bool)
	} else if seen[t] {
		return false // recursive shape: segments, if any, surface elsewhere
	}
	seen[t] = true
	v := false
	switch tt := t.(type) {
	case *types.Named:
		v = isSegmentTypeM(eng.m, tt) || eng.carriesRec(tt.Underlying(), seen)
	case *types.Pointer:
		v = eng.carriesRec(tt.Elem(), seen)
	case *types.Slice:
		v = eng.carriesRec(tt.Elem(), seen)
	case *types.Array:
		v = eng.carriesRec(tt.Elem(), seen)
	case *types.Chan:
		v = eng.carriesRec(tt.Elem(), seen)
	case *types.Map:
		v = eng.carriesRec(tt.Key(), seen) || eng.carriesRec(tt.Elem(), seen)
	case *types.Tuple:
		for i := 0; i < tt.Len() && !v; i++ {
			v = eng.carriesRec(tt.At(i).Type(), seen)
		}
	case *types.Struct:
		for i := 0; i < tt.NumFields() && !v; i++ {
			v = eng.carriesRec(tt.Field(i).Type(), seen)
		}
	}
	// true is sound to cache unconditionally; false may be an artifact of
	// the cycle guard, so cache it only for a fully-explored root query.
	if v || top {
		eng.carryMemo[t] = v
	}
	return v
}

// axiomPackage reports whether the package's behavior is modeled by the
// source/sanitizer axioms rather than by summarizing its bodies.
func (eng *pfEngine) axiomPackage(path string) bool {
	for _, p := range []string{"storage", "segstore", "abstraction", "rules", "wavesegment"} {
		if path == eng.m.Path+"/internal/"+p {
			return true
		}
	}
	return false
}

// summarize is the fixpoint update: recompute the node's dataflow summary
// and report whether it grew.
func (eng *pfEngine) summarize(node *CGNode) bool {
	if node.Decl.Body == nil || eng.axiomPackage(node.Pkg.Path) {
		return false
	}
	env := eng.envFor(node)
	sum := eng.summaries[node.Fn]
	if sum == nil {
		sum = newPFSummary()
		eng.summaries[node.Fn] = sum
	}
	before := len(sum.result.flows) + len(sum.result.params) + len(sum.paramSinks)

	// param→return: union the taint of every returned expression.
	collectReturns(node.Decl.Body, func(ret *ast.ReturnStmt) {
		if len(ret.Results) == 0 {
			for _, v := range env.named {
				sum.result.union(env.evalVar(v, make(map[*types.Var]bool)))
			}
			return
		}
		for _, r := range ret.Results {
			sum.result.union(env.eval(r, make(map[*types.Var]bool)))
		}
	})

	// param→sink, direct: a parameter's value placed into an egress sink
	// in this body.
	for _, s := range eng.sinksIn(env) {
		t := env.eval(s.value, make(map[*types.Var]bool))
		for idx := range t.params {
			if sum.paramSinks[idx] == nil {
				sum.paramSinks[idx] = &pfSinkPath{steps: []token.Pos{s.pos}, desc: s.desc, pkg: node.Pkg}
			}
		}
	}
	// param→sink, transitive: a parameter passed onward to a callee that
	// sinks it.
	for i := range node.Sites {
		site := &node.Sites[i]
		for _, tgt := range site.Targets {
			tsum := eng.summaries[tgt.Fn]
			if tsum == nil {
				continue
			}
			for idx, sp := range tsum.paramSinks {
				for _, arg := range argExprs(site.Call, tgt.Fn, idx) {
					at := env.eval(arg, make(map[*types.Var]bool))
					for p := range at.params {
						if sum.paramSinks[p] == nil {
							steps := append([]token.Pos{site.Pos}, sp.steps...)
							sum.paramSinks[p] = &pfSinkPath{steps: steps, desc: sp.desc, pkg: sp.pkg}
						}
					}
				}
			}
		}
	}
	return len(sum.result.flows)+len(sum.result.params)+len(sum.paramSinks) > before
}

// pfSink is one egress sink occurrence in a function body.
type pfSink struct {
	value ast.Expr
	pos   token.Pos
	desc  string
}

// sinkPackage reports whether path is a consumer-facing egress package
// (or a test fixture standing in for one).
func (eng *pfEngine) sinkPackage(path string) bool {
	switch path {
	case eng.m.Path + "/internal/httpapi",
		eng.m.Path + "/internal/stream",
		eng.m.Path + "/internal/federation":
		return true
	}
	return strings.HasPrefix(path, "fixture/")
}

// sinksIn collects the egress sinks of one function body: segment-typed
// values placed into response-named composite literals, assigned to
// response-typed fields, or handed to writeJSON.
func (eng *pfEngine) sinksIn(env *pfEnv) []pfSink {
	node := env.node
	info := node.Pkg.Info
	var sinks []pfSink
	consider := func(owner types.Type, val ast.Expr) {
		t := info.Types[val].Type
		if !isSegmentTypeM(eng.m, t) {
			return
		}
		sinks = append(sinks, pfSink{value: val, pos: val.Pos(), desc: typeShort(owner)})
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			t := info.Types[x].Type
			if !eng.responseSink(node.Pkg.Path, t) {
				return true
			}
			for _, elt := range x.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				consider(t, val)
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || i >= len(x.Rhs) {
					continue
				}
				owner := info.Types[sel.X].Type
				if eng.responseSink(node.Pkg.Path, owner) {
					consider(owner, x.Rhs[i])
				}
			}
		case *ast.CallExpr:
			if fn, ok := calleeObj(node.Pkg, x).(*types.Func); ok &&
				fn.Name() == "writeJSON" && len(x.Args) > 0 {
				arg := x.Args[len(x.Args)-1]
				if isSegmentTypeM(eng.m, info.Types[arg].Type) {
					sinks = append(sinks, pfSink{value: arg, pos: arg.Pos(), desc: "writeJSON"})
				}
			}
		}
		return true
	})
	return sinks
}

// responseSink reports whether t is a response-named struct shape that
// counts as egress here: either the enclosing package or the type's own
// package must be consumer-facing.
func (eng *pfEngine) responseSink(enclosingPkg string, t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return false
	}
	if !responseTypeRe.MatchString(named.Obj().Name()) {
		return false
	}
	if eng.sinkPackage(enclosingPkg) {
		return true
	}
	return named.Obj().Pkg() != nil && eng.sinkPackage(named.Obj().Pkg().Path())
}

// report walks every function once after the fixpoint and materializes
// findings: tainted values at direct sinks, and tainted arguments passed
// into callees that sink the parameter.
func (eng *pfEngine) report() {
	nodes := make([]*CGNode, 0, len(eng.g.Nodes))
	for _, n := range eng.g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Decl.Pos() < nodes[j].Decl.Pos() })

	type dedupKey struct {
		src, sink token.Pos
	}
	seen := make(map[dedupKey]bool)
	emit := func(pkg *Package, pos token.Pos, src *pfFlow, chain []token.Pos, sinkDesc string) {
		k := dedupKey{src.src, chain[len(chain)-1]}
		if seen[k] {
			return
		}
		seen[k] = true
		f := engFinding{pos: pos, msg: "raw segment from " + src.desc +
			" flows into consumer response " + sinkDesc +
			" without passing the abstraction release pipeline; path: " + fmtChain(eng.m, chain)}
		if privacyFlowApplies(eng.m.Path, pkg.Path) || strings.HasPrefix(pkg.Path, "fixture/") {
			eng.findings[pkg] = append(eng.findings[pkg], f)
		} else {
			eng.orphans = append(eng.orphans, f)
		}
	}

	for _, node := range nodes {
		if node.Decl.Body == nil || eng.axiomPackage(node.Pkg.Path) {
			continue
		}
		env := eng.envFor(node)
		for _, s := range eng.sinksIn(env) {
			t := env.eval(s.value, make(map[*types.Var]bool))
			for _, fl := range sortedFlows(t) {
				chain := append(append([]token.Pos{}, fl.steps...), s.pos)
				emit(node.Pkg, s.pos, fl, chain, s.desc)
			}
		}
		for i := range node.Sites {
			site := &node.Sites[i]
			for _, tgt := range site.Targets {
				tsum := eng.summaries[tgt.Fn]
				if tsum == nil {
					continue
				}
				for idx, sp := range tsum.paramSinks {
					for _, arg := range argExprs(site.Call, tgt.Fn, idx) {
						at := env.eval(arg, make(map[*types.Var]bool))
						for _, fl := range sortedFlows(at) {
							chain := append(append([]token.Pos{}, fl.steps...), site.Pos)
							chain = append(chain, sp.steps...)
							// Report at the sink itself, attributed to the
							// sink's package, so a directive at the egress
							// line suppresses every inbound path.
							emit(sp.pkg, chain[len(chain)-1], fl, chain, sp.desc)
						}
					}
				}
			}
		}
	}
}

func sortedFlows(t pfTaint) []*pfFlow {
	out := make([]*pfFlow, 0, len(t.flows))
	for _, f := range t.flows {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].src < out[j].src })
	return out
}

// isSegmentTypeM reports whether t is *wavesegment.Segment or a slice of
// (pointers to) it.
func isSegmentTypeM(m *Module, t types.Type) bool {
	switch tt := t.(type) {
	case *types.Slice:
		return isSegmentTypeM(m, tt.Elem())
	case *types.Pointer:
		return isSegmentTypeM(m, tt.Elem())
	case *types.Named:
		obj := tt.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == m.Path+"/internal/wavesegment" &&
			obj.Name() == "Segment"
	}
	return false
}

// isSegmentStruct reports whether t is the wavesegment.Segment struct
// type itself (not a container of it).
func isSegmentStruct(m *Module, t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == m.Path+"/internal/wavesegment" &&
		obj.Name() == "Segment"
}

func typeShort(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
