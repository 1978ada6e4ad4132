package sgxorch_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The architecture rules: the shape the module keeps, checked on its
// syntax trees (imports, selectors, case clauses, map key types, method
// sets) with the standard library's parser alone. Run them with
//
//	go test -run TestArchitecture .
//
// A rule's doc says why it exists. An exception to a rule is an entry in
// a list below that states its reason; a new rule needs a negative
// control in TestArchitectureRulesFire.

const modulePath = "github.com/sgxorch/sgxorch"

// srcFile is one parsed Go file of the repository.
type srcFile struct {
	path    string // slash-separated, relative to the repository root
	dir     string // its package directory, path.Dir(path)
	test    bool   // a _test.go file
	syntax  *ast.File
	imports map[string]string // local name → import path
}

// codebase is every Go file of the repository that the default build
// context matches, bench/ (its own module) included.
type codebase struct {
	fset  *token.FileSet
	files []*srcFile
	typed map[string]*typedPackage // typeCheck's result, once computed
}

func (c *codebase) add(name string, src any) error {
	f, err := parser.ParseFile(c.fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	sf := &srcFile{path: name, dir: path.Dir(name), test: strings.HasSuffix(name, "_test.go"),
		syntax: f, imports: map[string]string{}}
	for _, spec := range f.Imports {
		ip, _ := strconv.Unquote(spec.Path.Value)
		local := path.Base(ip)
		if spec.Name != nil {
			local = spec.Name.Name
		}
		sf.imports[local] = ip
	}
	c.files = append(c.files, sf)
	return nil
}

// parseTree parses every Go file under root, skipping the directories the
// go command skips (".x", "_x", testdata) and files whose build
// constraints the default context rejects.
func parseTree(root string) (*codebase, error) {
	c := &codebase{fset: token.NewFileSet()}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); err != nil || !ok {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		return c.add(filepath.ToSlash(rel), nil)
	})
	return c, err
}

// parseSources builds a codebase from in-memory files keyed by their
// repository-relative path.
func parseSources(files map[string]string) (*codebase, error) {
	c := &codebase{fset: token.NewFileSet()}
	for name, src := range files {
		if err := c.add(name, src); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *codebase) at(p token.Pos) string {
	pos := c.fset.Position(p)
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// within reports whether the slash path p is dir or lies beneath it.
func within(p, dir string) bool { return p == dir || strings.HasPrefix(p, dir+"/") }

// pkgRef reports n as a qualified identifier pkg.Name, pkg being the
// import path the qualifier names in f.
func (f *srcFile) pkgRef(n ast.Node) (pkg, name string, ok bool) {
	sel, isSel := n.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	x, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pkg, ok = f.imports[x.Name]
	return pkg, sel.Sel.Name, ok
}

// walk calls visit on every node of f with the top-level function
// declaration it lies in, nil outside one.
func (f *srcFile) walk(visit func(fn *ast.FuncDecl, n ast.Node)) {
	for _, d := range f.syntax.Decls {
		fn, _ := d.(*ast.FuncDecl)
		ast.Inspect(d, func(n ast.Node) bool {
			if n != nil {
				visit(fn, n)
			}
			return true
		})
	}
}

// recvType names a method's receiver type, "" for a function.
func recvType(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// forbidImport flags each import of forbidden by a non-test file of dir.
func forbidImport(dir, forbidden string) func(*codebase) []string {
	return func(c *codebase) (out []string) {
		for _, f := range c.files {
			if f.test || f.dir != dir {
				continue
			}
			for _, spec := range f.syntax.Imports {
				if ip, _ := strconv.Unquote(spec.Path.Value); ip == forbidden {
					out = append(out, c.at(spec.Pos())+": imports "+forbidden)
				}
			}
		}
		return out
	}
}

// forbidRefs flags each qualified reference — call, method value, case
// clause, comparison — to one of targets ("import/path.Name") in a file
// that exempt does not excuse.
func forbidRefs(exempt func(*srcFile) bool, targets ...string) func(*codebase) []string {
	return func(c *codebase) (out []string) {
		for _, f := range c.files {
			if exempt(f) {
				continue
			}
			f.walk(func(_ *ast.FuncDecl, n ast.Node) {
				if pkg, name, ok := f.pkgRef(n); ok {
					for _, t := range targets {
						if t == pkg+"."+name {
							out = append(out, c.at(n.Pos())+": refers to "+path.Base(pkg)+"."+name)
						}
					}
				}
			})
		}
		return out
	}
}

// isSubscribeEntry reports whether a Server method is named as a
// subscription or takes a callback of WatchEvents.
func isSubscribeEntry(fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	if strings.HasPrefix(name, "Subscribe") || strings.HasPrefix(name, "ListAndWatch") {
		return true
	}
	for _, p := range fn.Type.Params.List {
		if cb, ok := p.Type.(*ast.FuncType); ok {
			watches := false
			ast.Inspect(cb.Params, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "WatchEvent" {
					watches = true
				}
				return true
			})
			if watches {
				return true
			}
		}
	}
	return false
}

// fieldWrites calls visit for every assignment or ++/-- whose target is a
// field of a variable — w.A.B = …, w.A[k] = …, w.A++ — with the selector
// path from w and the expression w was last bound from before the write,
// in a scope that encloses it: a block, a case clause, or the if, for or
// switch whose init bound it. bound is nil for a parameter, a range
// variable or an unbound name.
func fieldWrites(f *srcFile, visit func(w *ast.Ident, path []string, bound ast.Expr)) {
	type binding struct {
		name  string
		at    token.Pos
		scope ast.Node
		rhs   ast.Expr
	}
	var binds []binding
	var stack []ast.Node
	write := func(target ast.Expr) {
		var path []string
		for {
			switch e := target.(type) {
			case *ast.SelectorExpr:
				path, target = append([]string{e.Sel.Name}, path...), e.X
			case *ast.IndexExpr:
				target = e.X
			case *ast.ParenExpr:
				target = e.X
			case *ast.Ident:
				if len(path) == 0 {
					return
				}
				var bound ast.Expr
				for _, b := range binds {
					if b.name == e.Name && b.at < e.Pos() && b.scope.Pos() <= e.Pos() && e.Pos() < b.scope.End() {
						bound = b.rhs
					}
				}
				visit(e, path, bound)
				return
			default:
				return
			}
		}
	}
	ast.Inspect(f.syntax, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				write(l)
			}
			scope := stack[len(stack)-1]
			for i, l := range n.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				binds = append(binds, binding{id.Name, n.End(), scope, rhs})
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.RangeStmt:
			for _, x := range []ast.Expr{n.Key, n.Value} {
				if id, ok := x.(*ast.Ident); ok {
					binds = append(binds, binding{id.Name, n.X.End(), n, nil})
				}
			}
		}
		stack = append(stack, n)
		return true
	})
}

// calls reports whether e is a call of a method or function named one of
// names.
func calls(e ast.Expr, names ...string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		return slices.Contains(names, fn.Sel.Name)
	case *ast.Ident:
		return slices.Contains(names, fn.Name)
	}
	return false
}

// freshCopy reports whether e makes a pod the caller may write: the next
// version, a clone or a struct copy.
func freshCopy(e ast.Expr) bool {
	if _, deref := e.(*ast.StarExpr); deref {
		return true
	}
	return calls(e, "nextVersion", "Clone")
}

type archRule struct {
	name  string
	doc   string
	check func(*codebase) []string // one line per violation, led by file:line
}

var archRules = []archRule{
	{
		name: "core-imports-no-query-engine",
		doc: `The scheduler's only read of usage is monitor.WindowMax; the
InfluxQL from-scratch view is internal/core's test oracle
(oracle_test.go). The query engine stays out of the production package
so the reference path cannot creep back into the pass.`,
		check: forbidImport("internal/core", modulePath+"/internal/influxql"),
	},
	{
		name: "runtime-stack-in-goid-only",
		doc: `A goroutine-id lookup is a stack traceback: on the synchronous
commit → fan-out path it was half the CPU of the paper's replay. The
combining Flush needs no goroutine identity, so runtime.Stack is read
only by the Async cold-path helper watch.goid (once per pump start, once
per unsubscribe that finds a delivery in flight) and cannot creep back
per event.`,
		check: func(c *codebase) (out []string) {
			for _, f := range c.files {
				if f.test {
					continue
				}
				f.walk(func(fn *ast.FuncDecl, n ast.Node) {
					pkg, name, ok := f.pkgRef(n)
					if !ok || pkg != "runtime" || name != "Stack" {
						return
					}
					if f.dir != "internal/watch" || fn == nil || fn.Recv != nil || fn.Name.Name != "goid" {
						out = append(out, c.at(n.Pos())+": runtime.Stack outside watch.goid")
					}
				})
			}
			return out
		},
	},
	{
		name: "monitor-imports-no-container-heap",
		doc: `WindowMax's expiry heap is a typed binary heap: container/heap
boxes every pushed and popped entry into an interface, one allocation per
sample on the write path every scrape takes.`,
		check: forbidImport("internal/monitor", "container/heap"),
	},
	{
		name: "core-imports-no-container-heap",
		doc: `The cache's maturity heap is a typed binary heap: container/heap
boxes every pushed and popped entry into an interface, two allocations per
started pod.`,
		check: forbidImport("internal/core", "container/heap"),
	},
	{
		name: "no-map-keyed-by-resource-name",
		doc: `A resource quantity is a fixed array indexed by resource.Name (three
integers, copied by assignment, compared with ==). A map keyed by the
name is the form it replaced — an allocation per request sum and a hashed
lookup per (pod, node) compare — and must not come back as a side door:
test files and bench/ included.`,
		check: func(c *codebase) (out []string) {
			for _, f := range c.files {
				ast.Inspect(f.syntax, func(n ast.Node) bool {
					m, ok := n.(*ast.MapType)
					if !ok {
						return true
					}
					pkg, name, qualified := f.pkgRef(m.Key)
					id, local := m.Key.(*ast.Ident)
					if qualified && pkg == modulePath+"/internal/resource" && name == "Name" ||
						local && f.dir == "internal/resource" && id.Name == "Name" {
						out = append(out, c.at(m.Pos())+": map keyed by resource.Name; use resource.List")
					}
					return true
				})
			}
			return out
		},
	},
	{
		name: "one-watch-ring-three-entry-points",
		doc: `The watch stream is one ring in one total order. A subscription is
sent either the whole stream or one node's sub-sequence of it, in the same
order, and *apiserver.Server offers exactly three entry points:
SubscribeBatch and ListAndWatchBatch, which differ in what the caller
supplies, not in what it is sent (the whole stream), and SubscribeNode,
which is sent one node's events. A per-kind ring (a topic) or a fourth
entry point, in any file of the package, is the machinery this replaced.
An entry point is an exported Server method named Subscribe… or
ListAndWatch…, or one that takes a callback of WatchEvents. The broker
draws each event's resource version as it appends it, so the stream has
one order point only while every commit publishes through txn.publish,
under the stripes it holds: no other non-test code of the package calls
the broker's Publish.`,
		check: func(c *codebase) (out []string) {
			entries := []string{"SubscribeBatch", "ListAndWatchBatch", "SubscribeNode"}
			want := map[string]bool{}
			for _, name := range entries {
				want[name] = false
			}
			for _, f := range c.files {
				if f.test || f.dir != "internal/watch" && f.dir != "internal/apiserver" {
					continue
				}
				ast.Inspect(f.syntax, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && strings.Contains(strings.ToLower(id.Name), "topic") {
						out = append(out, c.at(id.Pos())+": "+id.Name+": topics are back in the watch path")
					}
					return true
				})
				if f.dir != "internal/apiserver" {
					continue
				}
				f.walk(func(fn *ast.FuncDecl, n ast.Node) {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Publish" {
						return
					}
					if fn != nil && recvType(fn) == "txn" && fn.Name.Name == "publish" {
						return
					}
					out = append(out, c.at(call.Pos())+": Publish outside txn.publish: the stream's order point is the commit's publish")
				})
				for _, d := range f.syntax.Decls {
					fn, ok := d.(*ast.FuncDecl)
					if !ok || recvType(fn) != "Server" || !fn.Name.IsExported() || !isSubscribeEntry(fn) {
						continue
					}
					if _, known := want[fn.Name.Name]; !known {
						out = append(out, c.at(fn.Pos())+": Server."+fn.Name.Name+" is a fourth subscribe entry point")
						continue
					}
					want[fn.Name.Name] = true
				}
			}
			for _, name := range entries {
				if !want[name] {
					out = append(out, "internal/apiserver: Server."+name+" is missing")
				}
			}
			return out
		},
	},
	{
		name: "one-assembly-of-the-stack",
		doc: `The stack below the scheduler is assembled in one place,
internal/experiments/testbed.go's NewTestbed: under the simulated clock
the order components register in decides how same-instant events fire,
so it is part of every golden digest and sim_digest, and a second
assembly is a second place to get it wrong. cmd/sgx-probe's one-node
demo is a TestbedConfig too. bench/ mirrors the assembly under spans and
is its own module; tests build what they test.`,
		check: forbidRefs(func(f *srcFile) bool {
			return f.test || f.path == "internal/experiments/testbed.go" || within(f.dir, "bench")
		},
			modulePath+"/internal/kubelet.New",
			modulePath+"/internal/monitor.NewHeapster",
			modulePath+"/internal/monitor.NewProbes",
			modulePath+"/internal/lifecycle.New"),
	},
	{
		name: "one-place-arms-the-periodic-timers",
		doc: `The control plane is one periodic timer, the control round that
internal/experiments/testbed.go's newTestbed arms: at each instant where
a scrape or the pass is due it runs Heapster, the SGX probes in node
order, the registry's self-scrape, then the pass, so the round's code
order decides how same-instant scrapes and the pass interleave, and with
it every golden digest and sim_digest. Under the simulated clock, timers
due at one instant fire in the order they were last re-armed; a second
periodic timer in testbed.go puts that accident back. A component exposes
its step (Scheduler.ScheduleOnce, ShardedSchedulers.RunRound,
Heapster.Scrape, Registry.ScrapeInto) and arms nothing.
internal/experiments/replay.go's Fig. 7 sampler only reads the run it
samples; internal/tsdb's retention sweep is the database's own
housekeeping; bench/ mirrors the assembly under spans and is its own
module; tests arm what they test.`,
		check: func(c *codebase) []string {
			const testbed, periodic = "internal/experiments/testbed.go", modulePath + "/internal/clock.Periodic"
			out := forbidRefs(func(f *srcFile) bool {
				switch f.path {
				case testbed, "internal/experiments/replay.go", "internal/tsdb/tsdb.go":
					return true
				}
				return f.test || within(f.dir, "bench")
			}, periodic)(c)
			round := forbidRefs(func(f *srcFile) bool { return f.path != testbed }, periodic)(c)
			for _, ref := range round[min(len(round), 1):] {
				out = append(out, ref+": the control round is the testbed's one periodic timer")
			}
			return out
		},
	},
	{
		name: "one-reference-model",
		doc: `Replaying the watch stream into cluster state is one reducer,
internal/model: the experiments' audits and the property tests read it,
so its rules (a permit charges like a bind, a gang commit moves no
capacity and stays on its permit's node, finished members count toward
the quorum) are written once. Whoever reads the permit events — a case
clause, a comparison — is replaying the stream again, and a *Watcher
struct in internal/experiments is a replay by another name.
internal/core/cache.go is the scheduler's own incremental view; bench/ is
its own module.`,
		check: func(c *codebase) []string {
			out := forbidRefs(func(f *srcFile) bool {
				return within(f.dir, "internal/apiserver") || within(f.dir, "internal/model") ||
					f.path == "internal/core/cache.go" || within(f.dir, "bench")
			},
				modulePath+"/internal/apiserver.PodPermitHeld",
				modulePath+"/internal/apiserver.PodPermitReleased")(c)
			for _, f := range c.files {
				if !within(f.dir, "internal/experiments") {
					continue
				}
				ast.Inspect(f.syntax, func(n ast.Node) bool {
					if ts, ok := n.(*ast.TypeSpec); ok && strings.HasSuffix(ts.Name.Name, "Watcher") {
						if _, isStruct := ts.Type.(*ast.StructType); isStruct {
							out = append(out, c.at(ts.Pos())+": "+ts.Name.Name+": read internal/model instead")
						}
					}
					return true
				})
			}
			return out
		},
	},
	{
		name: "one-audited-testbed",
		doc: `Every scheduler in the module runs on one assembly with one audit:
internal/experiments/testbed.go calls core.New, core.NewGangDirector and
model.New once each, and core.NewSharded for a fleet, so
sgxorch.NewCluster and every experiment differ only in their
TestbedConfig. Under the simulated clock the order in which the testbed
builds and starts things is part of every golden digest and sim_digest;
a second place that builds a stack, a scheduler, a gang director or a
reference model is a second order to keep equal to the first, and a
model the testbed did not build audits nothing the testbed ran.
bench/ mirrors the assembly under spans and is its own module; tests
build what they test, except the experiments' own, which test the
testbed and its audit.`,
		check: func(c *codebase) (out []string) {
			const testbed = "internal/experiments/testbed.go"
			calls := map[string]int{}
			for _, f := range c.files {
				if f.test && !within(f.dir, "internal/experiments") || within(f.dir, "bench") {
					continue
				}
				f.walk(func(_ *ast.FuncDecl, n ast.Node) {
					pkg, name, ok := f.pkgRef(n)
					if !ok {
						return
					}
					ref := path.Base(pkg) + "." + name
					switch pkg + "." + name {
					case modulePath + "/internal/model.New", modulePath + "/internal/core.New",
						modulePath + "/internal/core.NewGangDirector":
						if calls[ref]++; f.path != testbed || calls[ref] > 1 {
							out = append(out, c.at(n.Pos())+": "+ref+": the testbed builds it, once")
						}
					case modulePath + "/internal/core.NewSharded":
						if f.path != testbed {
							out = append(out, c.at(n.Pos())+": "+ref+": the testbed builds the schedulers")
						}
					}
				})
			}
			return out
		},
	},
	{
		name: "one-job-to-pod-conversion",
		doc: `A job becomes a pod in one place, internal/experiments/job.go: the
replay, Cluster.SubmitJob, sgx-scheduler and every experiment's backlog
describe what they submit as an experiments.Job (TraceJob holds §VI-B's
scaling of a trace record), and Job.fill is the one conversion. An
api.Pod or api.Container literal elsewhere in the non-test files of
internal/ or the root package is a second conversion that no test keeps
equal to the first (the 16 MiB beside an SGX job's enclave, its
one-page floor). The types are resolved, so an elided {…} inside a
[]api.Container literal counts too. cmd/ demos that bind pods by hand
and bench/ are outside the rule; tests build what they test.`,
		check: func(c *codebase) (out []string) {
			for dir, p := range typeCheck(c) {
				if dir != "." && !within(dir, "internal") {
					continue
				}
				for _, f := range p.files {
					if f.path == "internal/experiments/job.go" {
						continue
					}
					ast.Inspect(f.syntax, func(n ast.Node) bool {
						lit, ok := n.(*ast.CompositeLit)
						if !ok {
							return true
						}
						t := p.info.TypeOf(lit)
						if ptr, ok := t.(*types.Pointer); ok {
							t = ptr.Elem() // an elided &T{…}
						}
						if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == modulePath+"/internal/api" {
							if name := named.Obj().Name(); name == "Pod" || name == "Container" {
								out = append(out, c.at(lit.Pos())+": an api."+name+" literal: fill an experiments.Job instead")
							}
						}
						return true
					})
				}
			}
			sort.Strings(out)
			return out
		},
	},
	{
		name: "the-pass-reads-no-server-queue",
		doc: `The scheduler owns its queue: a pass walks the queue its
ClusterCache keeps from the watch stream (internal/core/queue.go), and
the API server keeps only which pods are pending. The server's readers —
VisitPending, VisitPendingN, PendingPods, PendingCount — are for
sampling, benchmarks and tests; selected in internal/core outside tests,
called or taken as a method value, the pass reads the server's queue
again. internal/apiserver declares no ordered walk: a pendingCursor or
pendingBucket type, or anything named pull, is the server deciding the
scheduling order again. Nor does it sort its pending pods: the readers
and a snapshot hand them out in no order, and the cache's prime sorts
what it files. An import of sort, slices or cmp in
internal/apiserver/pending.go is that sort coming back.`,
		check: func(c *codebase) (out []string) {
			for _, f := range c.files {
				core := !f.test && within(f.dir, "internal/core")
				server := within(f.dir, "internal/apiserver")
				if !core && !server {
					continue
				}
				if f.path == "internal/apiserver/pending.go" {
					for _, spec := range f.syntax.Imports {
						switch ip, _ := strconv.Unquote(spec.Path.Value); ip {
						case "sort", "slices", "cmp":
							out = append(out, c.at(spec.Pos())+": "+ip+": the server sorts its pending pods again")
						}
					}
				}
				ast.Inspect(f.syntax, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						switch name := n.Sel.Name; {
						case core && (name == "VisitPending" || name == "VisitPendingN" || name == "PendingPods" || name == "PendingCount"):
							out = append(out, c.at(n.Pos())+": "+name+" reads the server's queue; walk the cache's")
						}
					case *ast.TypeSpec:
						if server && (n.Name.Name == "pendingCursor" || n.Name.Name == "pendingBucket") {
							out = append(out, c.at(n.Pos())+": "+n.Name.Name+": the server's ordered walk is back")
						}
					case *ast.FuncDecl:
						if server && n.Name.Name == "pull" {
							out = append(out, c.at(n.Pos())+": pull: the server's ordered walk is back")
						}
					}
					return true
				})
			}
			return out
		},
	},
	{
		name: "core-subscribes-only-in-its-cache",
		doc: `internal/core reads the watch stream once per scheduler, through
its ClusterCache (cache.go). Anything else in the package that needs
cluster state reads the cache or asks the server in one call (the gang
director's Server.GangCounts). A second subscription keeps a second copy
of state the server or the cache already keeps, and costs a callback on
every event it is sent, on every workload (watch.deliveries grows by
the events published for a whole-stream subscriber). Outside tests, only
cache.go selects Subscribe, SubscribeBatch, ListAndWatchBatch or
SubscribeNode.`,
		check: func(c *codebase) (out []string) {
			for _, f := range c.files {
				if f.test || !within(f.dir, "internal/core") || f.path == "internal/core/cache.go" {
					continue
				}
				ast.Inspect(f.syntax, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						switch sel.Sel.Name {
						case "Subscribe", "SubscribeBatch", "ListAndWatchBatch", "SubscribeNode":
							out = append(out, c.at(sel.Pos())+": "+sel.Sel.Name+" outside cache.go: read the cache or the server")
						}
					}
					return true
				})
			}
			return out
		},
	},
	{
		name: "stored-objects-are-read-only",
		doc: `A stored pod or node is immutable: a commit stores a new version
and publishes that pointer, and every reader — an event, GetPod, GetNode,
the lists, a snapshot — gets a stored version with no copy. A write
through one rewrites state the caches already hold, behind every event.
So in internal/apiserver a pod field (Spec, Status, UID) is
written only through a variable bound from the version builder
(txn.nextVersion), from .Clone() or from a struct copy (*p), and
anywhere in the repository a variable bound from GetPod( or GetNode( has
no field written until it is rebound from .Clone(). The match is by
name, over each variable's latest binding in scope: a write after a
clone made in a branch that does not enclose it still counts.`,
		check: func(c *codebase) (out []string) {
			podFields := map[string]bool{"Spec": true, "Status": true, "UID": true}
			for _, f := range c.files {
				server := !f.test && within(f.dir, "internal/apiserver")
				fieldWrites(f, func(w *ast.Ident, path []string, bound ast.Expr) {
					switch {
					case server && slices.ContainsFunc(path, func(p string) bool { return podFields[p] }) && !freshCopy(bound):
						out = append(out, c.at(w.Pos())+": writes "+w.Name+"."+strings.Join(path, ".")+" in place; build the next version")
					case calls(bound, "GetPod", "GetNode"):
						out = append(out, c.at(w.Pos())+": writes "+w.Name+"."+strings.Join(path, ".")+" of a stored version; clone it first")
					}
				})
			}
			return out
		},
	},
	{
		name: "cgroup-fields-owned-by-their-layer",
		doc: `A pod's cgroup record (internal/cgroup) carries one field per node
layer, each read and written under the lock that layer already takes for
its own totals, so a node total and the pod's share of it move in one
critical section. So a field is assigned, or moved by +=, -=, ++ or --,
in the package that owns it alone: VMBytes in internal/machine,
CommittedPages in internal/sgx, LimitPages and Limited in internal/isgx,
DevicePages in internal/deviceplugin. A record is built by a composite
literal, which only names its UID or its Name. The match is by field name, without
type checking, in every file, tests and bench/ included.`,
		check: func(c *codebase) (out []string) {
			owners := map[string]string{
				"VMBytes":        "internal/machine",
				"CommittedPages": "internal/sgx",
				"LimitPages":     "internal/isgx",
				"Limited":        "internal/isgx",
				"DevicePages":    "internal/deviceplugin",
			}
			for _, f := range c.files {
				fieldWrites(f, func(w *ast.Ident, path []string, _ ast.Expr) {
					if owner, ok := owners[path[len(path)-1]]; ok && !within(f.dir, owner) {
						out = append(out, c.at(w.Pos())+": writes "+w.Name+"."+strings.Join(path, ".")+", a cgroup field "+owner+" owns")
					}
				})
			}
			return out
		},
	},
	{
		name: "no-dead-internal-surface",
		doc: `Every exported top-level function, variable and constant, and every
exported method and struct field of an exported type, in internal/ has
a non-test reference outside its own declaration, or an entry in
deadSurfaceAllow that states why it stays. The non-test files of the
module, bench/ included, are type-checked (go/types, the standard
library from source), and a reference counts only when it resolves to
the declaration itself: a field or another type's method of the same
name does not keep it. A field is referenced by a selector or by a key
in a composite literal. A method also counts as referenced when it is
String or Error, or when its type implements an interface whose method
of that name non-test code calls.`,
		check: func(c *codebase) []string { return deadSurface(c, deadSurfaceAllow) },
	},
	{
		name: "no-unset-internal-knob",
		doc: `Every exported field of an exported …Config, …Options or …Profile
struct in internal/ or in the root package (ClusterConfig,
ReplayOptions) is set by non-test code somewhere (bench/ included), or
has an entry in knobAllow that names the test or benchmark needing its
second value. Each settable value doubles the configurations the tests
must cover; a value every caller leaves at its default is a constant. A
field is set by a key in a composite literal of its type, or by its name
selected on the left of an assignment in a file of another package that
names the type (a package's own defaulting assignments do not count).
The match is by name, without type checking: an assignment in a file
that never names the type is not seen.`,
		check: func(c *codebase) []string { return unsetKnobs(c, knobAllow) },
	},
}

// knobAllow lists exported configuration fields that only tests and
// benchmarks set, keyed "dir.Type.Field" ("sgxorch.Type.Field" in the root
// package), each with what needs the second value.
var knobAllow = map[string]string{
	"sgxorch.ClusterConfig.SchedulerInterval":          "TestTelemetryExportsEachCountOnce and the other telemetry_cluster_test.go and telemetry_catalogue_test.go tests pass 1 s; at 5 s their counts meet in coincidental equalities",
	"internal/core.GangConfig.PermitTimeout":           "internal/core's gang tests race 5–10 s permit rollbacks against commits",
	"internal/experiments.MultiSchedConfig.Concurrent": "TestMultiSchedConcurrentDrainSafe drains on real goroutines under -race",
	"internal/experiments.MultiSchedConfig.Horizon":    "TestMultiSchedConcurrentDrainSafe gives the nondeterministic drain 4 h",
	"internal/experiments.ClassesExpConfig.Shards":     "TestClassesMixedFleetDeterministic pins the 1-, 2- and 4-shard fleets",
	"internal/experiments.ClassesExpConfig.SGXEvery":   "TestClassesMixedFleetSGXUtilization compares the run with a fleet of no SGX jobs",
}

// deadSurfaceAllow lists exported internal/ declarations that have no
// non-test reference and stay, keyed "dir.Name" or "dir.Type.Member",
// each with its reason.
var deadSurfaceAllow = map[string]string{
	// Seams that tests of another package reach the stack through.
	"internal/apiserver.WithWatchCapacity":  "TestCacheResyncAfterOverflowMatchesBuildView (internal/core) shrinks the ring to force resyncs",
	"internal/apiserver.WithWatchBatch":     "TestCacheResyncAfterOverflowMatchesBuildView (internal/core) caps the batch the cache sees",
	"internal/apiserver.Server.ListNodes":   "internal/core's invariants_test.go reads every node from the server",
	"internal/tsdb.WithRetention":           "internal/monitor, internal/telemetry and internal/core tests bound the database they scrape into",
	"internal/machine.Machine.ProcessCount": "internal/kubelet and internal/stress tests check a pod's processes are gone",
	"internal/isgx.Driver.Enforcing":        "TestSGXMachine (internal/machine) checks the driver a machine builds enforces limits",
	"internal/sgx.Enclave.State":            "internal/isgx and internal/machine tests check an enclave's lifecycle through the driver",
	"internal/sgx.Enclave.Pages":            "internal/isgx and internal/machine tests check an enclave's commitment through the driver",
	"internal/sgx.Package.EnclaveCount":     "TestEnclaveInitDeniedOverLimit (internal/isgx) checks a denied enclave is gone",
	"internal/golden.StreamDigest":          "the determinism tests of internal/core and internal/experiments pin their runs with it",
	"internal/clock.Sim.Len":                "internal/experiments' testbed tests count what a testbed leaves armed on the clock",
	"internal/model.Cluster.Pending":        "the reference pending order that internal/apiserver's and internal/core's queue tests compare against",
	// Waiting for the caller they were built for.
	"internal/sgx.Package.SlowdownFactor":   "the §V-A paging penalty; an SGX execution is to run at its rate",
	"internal/experiments.WindowAblation":   "a §VI ablation the evaluation table is to carry as a row",
	"internal/experiments.IntervalAblation": "a §VI ablation the evaluation table is to carry as a row",
	"internal/experiments.SGX2Ablation":     "the §VI-G SGX 2 extension the evaluation table is to carry as a row",
}

// stdImporter type-checks the standard library from its source, which
// needs neither the network nor a build cache. It keeps what it checked,
// so the rules and their negative controls check each package once.
var stdImporter = importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)

// typedPackage is one directory's non-test files, type-checked.
type typedPackage struct {
	files []*srcFile
	info  *types.Info
	pkg   *types.Package
}

// typeCheck type-checks the non-test files of c, a package per directory,
// once per codebase. An import of the module resolves to the package
// checked here, so each declaration is one object across the codebase,
// bench/ included. Type errors are ignored: what does check still
// resolves.
func typeCheck(c *codebase) map[string]*typedPackage {
	if c.typed != nil {
		return c.typed
	}
	pkgs := map[string]*typedPackage{}
	for _, f := range c.files {
		if !f.test {
			if pkgs[f.dir] == nil {
				pkgs[f.dir] = &typedPackage{}
			}
			pkgs[f.dir].files = append(pkgs[f.dir].files, f)
		}
	}
	var check func(dir string) *types.Package
	conf := types.Config{Error: func(error) {}, Importer: importerFunc(func(ip string) (*types.Package, error) {
		dir := strings.TrimPrefix(strings.TrimPrefix(ip, modulePath), "/")
		if ip == modulePath {
			dir = "."
		}
		if strings.HasPrefix(ip, modulePath) && pkgs[dir] != nil {
			return check(dir), nil
		}
		return stdImporter.ImportFrom(ip, "", 0)
	})}
	check = func(dir string) *types.Package {
		p := pkgs[dir]
		if p.info == nil {
			p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
			syntax := make([]*ast.File, len(p.files))
			for i, f := range p.files {
				syntax[i] = f.syntax
			}
			p.pkg, _ = conf.Check(path.Join(modulePath, dir), c.fset, syntax, p.info)
		}
		return p.pkg
	}
	for dir := range pkgs {
		check(dir)
	}
	c.typed = pkgs
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// references returns the objects that non-test code uses outside their own
// declaration (a recursive call does not count), generic methods and
// functions by their origin, and the interface methods among them.
func references(pkgs map[string]*typedPackage) (used map[types.Object]bool, ifaceMethods []*types.Func) {
	used = map[types.Object]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			f.walk(func(fn *ast.FuncDecl, n ast.Node) {
				id, ok := n.(*ast.Ident)
				if !ok || p.info.Uses[id] == nil || fn != nil && p.info.Uses[id] == p.info.Defs[fn.Name] {
					return
				}
				obj := p.info.Uses[id]
				if v, ok := obj.(*types.Var); ok {
					obj = v.Origin()
				}
				if m, ok := obj.(*types.Func); ok {
					obj = m.Origin()
					if recv := m.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) && !used[obj] {
						ifaceMethods = append(ifaceMethods, m)
					}
				}
				used[obj] = true
			})
		}
	}
	return used, ifaceMethods
}

// satisfiesCalled reports whether m's receiver type, or a pointer to it,
// implements an interface whose method of m's name non-test code calls.
func satisfiesCalled(m *types.Func, ifaceMethods []*types.Func) bool {
	recv := m.Signature().Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, _ := types.Unalias(recv).(*types.Named)
	if named == nil || named.TypeParams().Len() > 0 {
		return false // a generic type's methods need a direct reference
	}
	for _, im := range ifaceMethods {
		iface := im.Signature().Recv().Type().Underlying().(*types.Interface)
		if im.Name() == m.Name() && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
			return true
		}
	}
	return false
}

func deadSurface(c *codebase, allow map[string]string) (out []string) {
	pkgs := typeCheck(c)
	used, ifaceMethods := references(pkgs)
	declared := map[string]bool{}
	judge := func(pos token.Pos, key string, live bool) {
		declared[key] = true
		switch {
		case live && allow[key] != "":
			out = append(out, c.at(pos)+": "+key+" is referenced; drop its allowlist entry")
		case live, allow[key] != "":
		default:
			out = append(out, c.at(pos)+": "+key+" has no non-test reference")
		}
	}
	for dir, p := range pkgs {
		if !within(dir, "internal") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.syntax.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if id.IsExported() {
									judge(id.Pos(), dir+"."+id.Name, used[p.info.Defs[id]])
								}
							}
						case *ast.TypeSpec:
							st, ok := spec.Type.(*ast.StructType)
							if !ok || !spec.Name.IsExported() {
								continue
							}
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									if id.IsExported() {
										judge(id.Pos(), dir+"."+spec.Name.Name+"."+id.Name, used[p.info.Defs[id]])
									}
								}
							}
						}
					}
				}
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				obj, _ := p.info.Defs[fn.Name].(*types.Func)
				key, name := dir+"."+fn.Name.Name, fn.Name.Name
				live := used[obj]
				if recv := recvType(fn); recv != "" {
					if !ast.IsExported(recv) {
						continue // reachable only through an interface it satisfies
					}
					key = dir + "." + recv + "." + name
					live = live || name == "String" || name == "Error" || obj != nil && satisfiesCalled(obj, ifaceMethods)
				}
				judge(fn.Pos(), key, live)
			}
		}
	}
	for key := range allow {
		if !declared[key] {
			out = append(out, "allowlist entry "+key+" names no declaration")
		}
	}
	sort.Strings(out)
	return out
}

// isKnobStruct reports whether name is an exported configuration type.
func isKnobStruct(name string) bool {
	return ast.IsExported(name) &&
		(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Profile"))
}

// knobPkg names the package in directory dir in a knob key: the
// directory, or the module's base name for the root package.
func knobPkg(dir string) string {
	if dir == "." {
		return path.Base(modulePath)
	}
	return dir
}

// moduleDir reports the repository directory of the module package that
// import path pkg names.
func moduleDir(pkg string) (string, bool) {
	if pkg == modulePath {
		return ".", true
	}
	dir, ok := strings.CutPrefix(pkg, modulePath+"/")
	return dir, ok
}

// knobFields returns the exported named fields of every exported
// configuration struct in non-test internal/ and root-package code, keyed
// "dir.Type.Field" (see knobPkg).
func knobFields(c *codebase) map[string]*ast.Ident {
	fields := map[string]*ast.Ident{}
	for _, f := range c.files {
		if f.test || !within(f.dir, "internal") && f.dir != "." {
			continue
		}
		ast.Inspect(f.syntax, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !isKnobStruct(ts.Name.Name) {
				return true
			}
			if st, isStruct := ts.Type.(*ast.StructType); isStruct {
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.IsExported() {
							fields[knobPkg(f.dir)+"."+ts.Name.Name+"."+id.Name] = id
						}
					}
				}
			}
			return false
		})
	}
	return fields
}

// knobsSet indexes, as "dir.Type.Field", the fields non-test code sets: each
// key of a composite literal of a type, and each name a file selects on the
// left of an assignment, for every type that file names from another
// package of the module.
func knobsSet(c *codebase) map[string]bool {
	set := map[string]bool{}
	for _, f := range c.files {
		if f.test {
			continue
		}
		named, assigned := map[string]bool{}, map[string]bool{}
		ast.Inspect(f.syntax, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if pkg, name, ok := f.pkgRef(n); ok {
					if dir, ok := moduleDir(pkg); ok {
						named[knobPkg(dir)+"."+name] = true
					}
				}
			case *ast.CompositeLit:
				typ := ""
				if pkg, name, ok := f.pkgRef(n.Type); ok {
					if dir, ok := moduleDir(pkg); ok {
						typ = knobPkg(dir) + "." + name
					}
				} else if id, ok := n.Type.(*ast.Ident); ok {
					typ = knobPkg(f.dir) + "." + id.Name
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok && typ != "" {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[typ+"."+key.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						assigned[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		for typ := range named {
			for field := range assigned {
				set[typ+"."+field] = true
			}
		}
	}
	return set
}

func unsetKnobs(c *codebase, allow map[string]string) (out []string) {
	fields, set := knobFields(c), knobsSet(c)
	for key, id := range fields {
		switch {
		case set[key] && allow[key] != "":
			out = append(out, c.at(id.Pos())+": "+key+" is set; drop its allowlist entry")
		case set[key], allow[key] != "":
		default:
			out = append(out, c.at(id.Pos())+": "+key+" is set by no non-test code")
		}
	}
	for key := range allow {
		if fields[key] == nil {
			out = append(out, "allowlist entry "+key+" names no field")
		}
	}
	sort.Strings(out)
	return out
}

func TestArchitecture(t *testing.T) {
	c, err := parseTree(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			if out := r.check(c); len(out) > 0 {
				t.Errorf("%s\n\n%s", strings.Join(out, "\n"), r.doc)
			}
		})
	}
}

// TestArchitectureRulesFire feeds every rule a small source that breaks
// it and wants the rule to name the offending line, so a matcher that
// silently matches nothing fails here.
func TestArchitectureRulesFire(t *testing.T) {
	const server = `package apiserver
type Server struct{}
type WatchEvent struct{}
type Snapshot struct{}
func (s *Server) SubscribeBatch(fn func([]WatchEvent), r func(Snapshot)) func() { return nil }
func (s *Server) ListAndWatchBatch(fn func([]WatchEvent), r func(Snapshot)) (Snapshot, func()) { return Snapshot{}, nil }
func (s *Server) SubscribeNode(node string, fn func([]WatchEvent), r func(Snapshot)) func() { return nil }
`
	const apiTypes = "package api\n\ntype Container struct{ Name string }\n\ntype Pod struct {\n\tName       string\n\tContainers []Container\n}\n"
	cases := []struct {
		rule  string
		files map[string]string
		want  string // the file:line the rule must report
	}{
		{"core-imports-no-query-engine", map[string]string{
			"internal/core/view.go": "package core\n\nimport _ \"github.com/sgxorch/sgxorch/internal/influxql\"\n",
		}, "internal/core/view.go:3"},
		{"runtime-stack-in-goid-only", map[string]string{
			"internal/watch/broker.go": "package watch\n\nimport \"runtime\"\n\nfunc goid() { runtime.Stack(nil, false) }\n",
			"internal/watch/flush.go":  "package watch\n\nimport rt \"runtime\"\n\nvar stack = rt.Stack\n",
		}, "internal/watch/flush.go:5"},
		{"monitor-imports-no-container-heap", map[string]string{
			"internal/monitor/windowmax.go": "package monitor\n\nimport \"container/heap\"\n\nvar _ heap.Interface\n",
		}, "internal/monitor/windowmax.go:3"},
		{"core-imports-no-container-heap", map[string]string{
			"internal/core/cache.go": "package core\n\nimport (\n\t\"cmp\"\n\t\"container/heap\"\n)\n\nvar _ = cmp.Compare[int]\nvar _ heap.Interface\n",
		}, "internal/core/cache.go:5"},
		{"no-map-keyed-by-resource-name", map[string]string{
			"bench/layers.go": "package main\n\nimport \"github.com/sgxorch/sgxorch/internal/resource\"\n\nvar m map[resource.Name]int64\n",
		}, "bench/layers.go:5"},
		{"no-map-keyed-by-resource-name", map[string]string{
			"internal/resource/list_test.go": "package resource\n\nfunc TestX() { _ = map[Name]int64{} }\n",
		}, "internal/resource/list_test.go:3"},
		{"one-watch-ring-three-entry-points", map[string]string{
			"internal/apiserver/server.go": server,
			"internal/apiserver/keyed.go":  "package apiserver\n\nfunc (s *Server) SubscribeKeyed(key string, fn func(WatchEvent)) func() { return nil }\n",
		}, "internal/apiserver/keyed.go:3"},
		{"one-watch-ring-three-entry-points", map[string]string{
			"internal/apiserver/server.go": server,
			"internal/apiserver/pods.go":   "package apiserver\n\nfunc (s *Server) OnPods(fn func([]WatchEvent)) {}\n",
		}, "internal/apiserver/pods.go:3"},
		{"one-watch-ring-three-entry-points", map[string]string{
			"internal/apiserver/server.go": server,
			"internal/watch/ring.go":       "package watch\n\ntype ring struct{ byTopic map[string]int }\n",
		}, "internal/watch/ring.go:3"},
		{"one-watch-ring-three-entry-points", map[string]string{
			"internal/apiserver/server.go": server,
			"internal/apiserver/txn.go":    "package apiserver\n\nfunc (t *txn) publish(ev WatchEvent) int64 { return t.s.broker.Publish(\"\", ev, nil) }\n",
			"internal/apiserver/fast.go":   "package apiserver\n\nfunc (s *Server) fastPublish(ev WatchEvent) {\n\ts.broker.Publish(\"\", ev, nil)\n}\n",
		}, "internal/apiserver/fast.go:4"},
		{"one-assembly-of-the-stack", map[string]string{
			"internal/experiments/sgx2.go": "package experiments\n\nimport \"github.com/sgxorch/sgxorch/internal/kubelet\"\n\nvar k = kubelet.New(nil)\n",
		}, "internal/experiments/sgx2.go:5"},
		{"one-place-arms-the-periodic-timers", map[string]string{
			"internal/experiments/testbed.go": "package experiments\n\nimport \"github.com/sgxorch/sgxorch/internal/clock\"\n\nfunc newTestbed() { clock.Periodic(nil, 1, func() {}) }\n",
			"internal/core/scheduler.go":      "package core\n\nimport \"github.com/sgxorch/sgxorch/internal/clock\"\n\nfunc (s *Scheduler) Start() { s.stop = clock.Periodic(s.clk, 1, nil) }\n",
		}, "internal/core/scheduler.go:5"},
		{"one-place-arms-the-periodic-timers", map[string]string{
			"internal/experiments/testbed.go": "package experiments\n\nimport \"github.com/sgxorch/sgxorch/internal/clock\"\n\nfunc newTestbed() {\n\tclock.Periodic(nil, 1, func() {})\n\tclock.Periodic(nil, 1, func() {})\n}\n",
		}, "internal/experiments/testbed.go:7"},
		{"one-place-arms-the-periodic-timers", map[string]string{
			"internal/telemetry/scrape.go": "package telemetry\n\nimport clk \"github.com/sgxorch/sgxorch/internal/clock\"\n\nvar arm = clk.Periodic\n",
		}, "internal/telemetry/scrape.go:5"},
		{"one-reference-model", map[string]string{
			"internal/experiments/audit.go": `package experiments

import "github.com/sgxorch/sgxorch/internal/apiserver"

func held(ev apiserver.WatchEvent) bool {
	return ev.Type == apiserver.PodPermitHeld
}
`,
		}, "internal/experiments/audit.go:6"},
		{"one-reference-model", map[string]string{
			"internal/experiments/gang_test.go": "package experiments\n\ntype gangWatcher struct{ held int }\n",
		}, "internal/experiments/gang_test.go:3"},
		{"one-audited-testbed", map[string]string{
			"internal/experiments/testbed.go": "package experiments\n\nimport \"github.com/sgxorch/sgxorch/internal/core\"\n\nvar sched, _ = core.New(nil, nil, nil, core.Config{})\n",
			"internal/experiments/gang.go":    "package experiments\n\nimport \"github.com/sgxorch/sgxorch/internal/core\"\n\nvar gangs, _ = core.New(nil, nil, nil, core.Config{})\n",
		}, "internal/experiments/gang.go:5"},
		{"one-audited-testbed", map[string]string{
			"cmd/x/main.go": "package main\n\nimport \"github.com/sgxorch/sgxorch/internal/core\"\n\nfunc main() { core.New(nil, nil, nil, core.Config{}) }\n",
		}, "cmd/x/main.go:5"},
		{"one-audited-testbed", map[string]string{
			"internal/experiments/testbed.go": "package experiments\n\nimport \"github.com/sgxorch/sgxorch/internal/model\"\n\nvar audit = model.New(0)\n\nvar shadow = model.New(0)\n",
		}, "internal/experiments/testbed.go:7"},
		{"one-audited-testbed", map[string]string{
			"internal/experiments/classes.go": "package experiments\n\nimport \"github.com/sgxorch/sgxorch/internal/core\"\n\nvar fleet = core.NewSharded\n",
		}, "internal/experiments/classes.go:5"},
		{"one-audited-testbed", map[string]string{
			"internal/experiments/testbed_test.go": "package experiments\n\nimport \"github.com/sgxorch/sgxorch/internal/model\"\n\nvar shadow = model.New(0)\n",
		}, "internal/experiments/testbed_test.go:5"},
		{"one-audited-testbed", map[string]string{
			"cluster.go": "package sgxorch\n\nimport \"github.com/sgxorch/sgxorch/internal/core\"\n\nvar gangs = core.NewGangDirector(nil, nil, core.GangConfig{})\n",
		}, "cluster.go:5"},
		{"one-job-to-pod-conversion", map[string]string{
			"internal/api/types.go":             apiTypes,
			"internal/experiments/job.go":       "package experiments\n\nimport \"github.com/sgxorch/sgxorch/internal/api\"\n\nvar pod = api.Pod{}\n",
			"internal/experiments/malicious.go": "package experiments\n\nimport \"github.com/sgxorch/sgxorch/internal/api\"\n\nvar ctrs = []api.Container{\n\t{Name: \"malicious\"},\n}\n",
		}, "internal/experiments/malicious.go:6"},
		{"one-job-to-pod-conversion", map[string]string{
			"internal/api/types.go": apiTypes,
			"cluster.go":            "package sgxorch\n\nimport \"github.com/sgxorch/sgxorch/internal/api\"\n\nfunc submit() *api.Pod { return &api.Pod{Name: \"job\"} }\n",
		}, "cluster.go:5"},
		{"one-job-to-pod-conversion", map[string]string{
			"internal/api/types.go":        apiTypes,
			"internal/experiments/gang.go": "package experiments\n\nimport \"github.com/sgxorch/sgxorch/internal/api\"\n\nvar pods = []*api.Pod{\n\t{Name: \"member\"},\n}\n",
		}, "internal/experiments/gang.go:6"},
		{"the-pass-reads-no-server-queue", map[string]string{
			"internal/core/pass.go": "package core\n\nfunc pass(s interface{ PendingCount() int }) { depth := s.PendingCount; _ = depth }\n",
		}, "internal/core/pass.go:3"},
		{"the-pass-reads-no-server-queue", map[string]string{
			"internal/apiserver/pending.go": "package apiserver\n\ntype pendingCursor struct{ seq uint64 }\n\nfunc (c *pendingCursor) pull() {}\n",
		}, "internal/apiserver/pending.go:3"},
		{"the-pass-reads-no-server-queue", map[string]string{
			"internal/apiserver/pending.go": "package apiserver\n\nimport (\n\t\"maps\"\n\tsorted \"slices\"\n)\n\nfunc names(m map[string]int64) []string { return sorted.Sorted(maps.Keys(m)) }\n",
		}, "internal/apiserver/pending.go:5"},
		{"the-pass-reads-no-server-queue", map[string]string{
			"internal/apiserver/walk.go": "package apiserver\n\ntype index struct{}\n\nfunc (x *index) pull(n int) []string { return nil }\n",
		}, "internal/apiserver/walk.go:5"},
		{"core-subscribes-only-in-its-cache", map[string]string{
			"internal/core/cache.go": "package core\n\nfunc prime(s interface{ ListAndWatchBatch(func()) }) { s.ListAndWatchBatch(nil) }\n",
			"internal/core/gang.go":  "package core\n\nfunc watch(s interface{ SubscribeBatch(func(), func()) func() }) { s.SubscribeBatch(nil, nil) }\n",
		}, "internal/core/gang.go:3"},
		{"stored-objects-are-read-only", map[string]string{
			"internal/core/queue_test.go": `package core

func straggler(srv interface{ GetPod(string) (*Pod, error) }) {
	if p, _ := srv.GetPod("a"); p.Spec.InGang() {
		p.Name = "a-late"
	}
}
`,
		}, "internal/core/queue_test.go:5"},
		{"stored-objects-are-read-only", map[string]string{
			"internal/kubelet/kubelet.go": `package kubelet

func stop(srv interface{ GetNode(string) (*Node, error) }) {
	n, err := srv.GetNode("n1")
	if err == nil {
		n = n.Clone()
	}
	n.Ready = false
}
`,
		}, "internal/kubelet/kubelet.go:8"},
		{"stored-objects-are-read-only", map[string]string{
			"internal/apiserver/server.go": `package apiserver

func (t *txn) run(p *Pod) {
	c := p.Clone()
	c.Status.Reason = "copy"
	p.Status.Phase = PodRunning
}
`,
		}, "internal/apiserver/server.go:6"},
		{"cgroup-fields-owned-by-their-layer", map[string]string{
			"internal/kubelet/kubelet.go": "package kubelet\n\nfunc release(e *podEntry) {\n\te.cg.DevicePages = 0\n}\n",
		}, "internal/kubelet/kubelet.go:4"},
		{"cgroup-fields-owned-by-their-layer", map[string]string{
			"internal/sgx/sgx.go":          "package sgx\n\nfunc (p *Package) commit(e *Enclave, n int64) { e.Cgroup.CommittedPages += n }\n",
			"internal/isgx/driver_test.go": "package isgx\n\nfunc TestX() {\n\tcg.LimitPages, cg.Limited = 1, true\n\tcgs[0].CommittedPages++\n}\n",
		}, "internal/isgx/driver_test.go:5"},
		{"no-dead-internal-surface", map[string]string{
			"internal/sgx/quote.go": "package sgx\n\nfunc live() { Live() }\n\nfunc Live() {}\n\nfunc Dead() { Dead() }\n",
		}, "internal/sgx/quote.go:7"},
		{"no-dead-internal-surface", map[string]string{
			"internal/sgx/enclave.go": "package sgx\n\ntype Enclave struct{}\n\nfunc (e *Enclave) Seal() { e.Seal() }\n",
			"cmd/x/main.go":           "package main\n\nfunc main() { var s interface{ String() string }; _ = s }\n",
		}, "internal/sgx/enclave.go:5"},
		{"no-dead-internal-surface", map[string]string{
			"internal/sgx/enclave.go":      "package sgx\n\ntype Enclave struct{}\n\nfunc (e *Enclave) Seal() {}\n",
			"internal/sgx/enclave_test.go": "package sgx\n\nfunc use(e *Enclave) { e.Seal() }\n",
		}, "internal/sgx/enclave.go:5"},
		{"no-dead-internal-surface", map[string]string{
			"internal/clock/clock.go":    "package clock\n\ntype Clock interface{ Sleep() }\n\ntype Sim struct{}\n\nfunc (s *Sim) Sleep() {}\n\nvar _ Clock = (*Sim)(nil)\n",
			"internal/clock/sim_test.go": "package clock\n\nfunc use(c Clock) { c.Sleep() }\n",
		}, "internal/clock/clock.go:7"},
		{"no-dead-internal-surface", map[string]string{
			"internal/golden/golden.go": "package golden\n\nfunc StreamDigest() {}\n",
			"cmd/x/main.go":             "package main\n\nimport \"github.com/sgxorch/sgxorch/internal/golden\"\n\nfunc main() { golden.StreamDigest() }\n",
		}, "internal/golden/golden.go:3"},
		{"no-dead-internal-surface", map[string]string{
			"internal/borg/generator.go": "package borg\n\ntype Generator struct{}\n\nfunc (g *Generator) Config() {}\n",
			"cmd/x/main.go":              "package main\n\nimport \"github.com/sgxorch/sgxorch/internal/core\"\n\nvar _ = core.Config{}\n",
		}, "internal/borg/generator.go:5"},
		{"no-dead-internal-surface", map[string]string{
			"internal/sgx/enclave.go": "package sgx\n\ntype Enclave struct{}\n\nfunc (e *Enclave) Size() int { return 0 }\n\ntype Package struct{}\n\nfunc (p *Package) Size() int { return 0 }\n\nfunc use(e *Enclave) int { return e.Size() }\n",
		}, "internal/sgx/enclave.go:9"},
		{"no-dead-internal-surface", map[string]string{
			"internal/monitor/windowmax.go": "package monitor\n\ntype WindowMax struct{}\n\nfunc (w *WindowMax) Window() int { return 0 }\n",
			"cmd/x/main.go":                 "package main\n\ntype config struct{ Window int }\n\nfunc main() { _ = config{}.Window }\n",
		}, "internal/monitor/windowmax.go:5"},
		{"no-dead-internal-surface", map[string]string{
			"internal/clock/clock.go": "package clock\n\ntype Sleeper interface{ Sleep(d int) }\n\ntype Sim struct{}\n\nfunc (s *Sim) Sleep() {}\n\nfunc use(c Sleeper) { c.Sleep(1) }\n",
		}, "internal/clock/clock.go:7"},
		{"no-dead-internal-surface", map[string]string{
			"internal/api/types.go": "package api\n\ntype PodStatus struct {\n\tReason  string\n\tMessage string\n}\n\nfunc use(s PodStatus) string { return s.Reason }\n",
			"cmd/x/main.go":         "package main\n\ntype status struct{ Message string }\n\nfunc main() { _ = status{Message: \"m\"}.Message }\n",
		}, "internal/api/types.go:5"},
		{"no-dead-internal-surface", map[string]string{
			"internal/watch/broker.go":      "package watch\n\nimport \"errors\"\n\nvar ErrTooOld = errors.New(\"too old\")\n\nvar ErrLive = errors.New(\"live\")\n\nfunc use() error { return ErrLive }\n",
			"internal/watch/broker_test.go": "package watch\n\nvar _ = ErrTooOld\n",
		}, "internal/watch/broker.go:5"},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.rule] = true
		var rule *archRule
		for i := range archRules {
			if archRules[i].name == tc.rule {
				rule = &archRules[i]
			}
		}
		if rule == nil {
			t.Errorf("no rule named %q", tc.rule)
			continue
		}
		c, err := parseSources(tc.files)
		if err != nil {
			t.Fatal(err)
		}
		out := rule.check(c)
		if !strings.Contains(strings.Join(out, "\n"), tc.want+":") {
			t.Errorf("%s: want a violation at %s, got %q", tc.rule, tc.want, out)
		}
	}
	// A method non-test code calls only through an interface it satisfies
	// is live.
	c, err := parseSources(map[string]string{
		"internal/clock/clock.go": "package clock\n\ntype Clock interface{ Sleep() }\n\ntype Sim struct{}\n\nfunc (s *Sim) Sleep() {}\n\nfunc Use(c Clock) { c.Sleep() }\n",
		"cmd/x/main.go":           "package main\n\nimport \"github.com/sgxorch/sgxorch/internal/clock\"\n\nfunc main() { clock.Use(&clock.Sim{}) }\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := deadSurface(c, nil); len(out) > 0 {
		t.Errorf("no-dead-internal-surface flags a method called through its interface: %q", out)
	}
	// The knob rule takes its allowlist from the case; want is a fragment
	// of the report, or "" when the sources must pass.
	const knob = "package stress\n\ntype Config struct {\n\tOnStarted func()\n}\n"
	const setter = "package main\n\nimport \"github.com/sgxorch/sgxorch/internal/stress\"\n\n"
	const rootKnob = "package sgxorch\n\ntype ClusterConfig struct {\n\tScrapeInterval int\n}\n"
	for _, tc := range []struct {
		name  string
		files map[string]string
		allow map[string]string
		want  string
	}{
		{"unset field", map[string]string{"internal/stress/stress.go": knob}, nil, "internal/stress/stress.go:4:"},
		{"own package's defaulting", map[string]string{
			"internal/stress/stress.go":   knob,
			"internal/stress/defaults.go": "package stress\n\nfunc (c Config) withDefaults() Config { c.OnStarted = func() {}; return c }\n",
		}, nil, "internal/stress/stress.go:4:"},
		{"set by a literal", map[string]string{
			"internal/stress/stress.go": knob,
			"cmd/x/main.go":             setter + "var _ = stress.Config{OnStarted: func() {}}\n",
		}, nil, ""},
		{"assigned from another package", map[string]string{
			"internal/stress/stress.go": knob,
			"cmd/x/main.go":             setter + "func main() { var c stress.Config; c.OnStarted = func() {}; _ = c }\n",
		}, nil, ""},
		{"set only by a test", map[string]string{
			"internal/stress/stress.go":      knob,
			"internal/stress/stress_test.go": "package stress\n\nvar _ = Config{OnStarted: func() {}}\n",
		}, map[string]string{"internal/stress.Config.OnStarted": "a test sets it"}, ""},
		{"stale allowlist entry", map[string]string{
			"internal/stress/stress.go": knob,
			"cmd/x/main.go":             setter + "var _ = stress.Config{OnStarted: func() {}}\n",
		}, map[string]string{"internal/stress.Config.OnStarted": "a test sets it"}, "internal/stress/stress.go:4:"},
		{"allowlist entry naming no field", map[string]string{
			"internal/stress/stress.go": knob,
			"cmd/x/main.go":             setter + "var _ = stress.Config{OnStarted: func() {}}\n",
		}, map[string]string{"internal/stress.Config.OnFinished": "a test sets it"}, "internal/stress.Config.OnFinished names no field"},
		{"root package's unset field", map[string]string{
			"cluster.go": rootKnob,
		}, nil, "cluster.go:4: sgxorch.ClusterConfig.ScrapeInterval"},
		{"root package's field set by a literal", map[string]string{
			"cluster.go":    rootKnob,
			"cmd/x/main.go": "package main\n\nimport \"github.com/sgxorch/sgxorch\"\n\nvar _ = sgxorch.ClusterConfig{ScrapeInterval: 1}\n",
		}, nil, ""},
	} {
		covered["no-unset-internal-knob"] = true
		c, err := parseSources(tc.files)
		if err != nil {
			t.Fatal(err)
		}
		out := strings.Join(unsetKnobs(c, tc.allow), "\n")
		if tc.want == "" && out != "" || !strings.Contains(out, tc.want) {
			t.Errorf("no-unset-internal-knob, %s: want %q, got %q", tc.name, tc.want, out)
		}
	}
	for _, r := range archRules {
		if !covered[r.name] {
			t.Errorf("rule %s has no negative control", r.name)
		}
	}
}
