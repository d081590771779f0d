package lint

import (
	"go/ast"
)

// CtxPoll closes the gap where a new engine silently loses RunCtx parity:
// cancellation plumbing exists only if every long loop actually reaches a
// poll. The analyzer works on the shared call graph:
//
//   - Roots are the //armlint:cancellable entry points (Mine,
//     MineSegmented, the vbit DFS). Everything reachable from a root over
//     Refs edges — calls, method values, go/defer, escaping function
//     values — inherits the obligation; function literals are part of their
//     enclosing declaration.
//   - A loop owes a poll when its body calls an iteration source: a
//     function annotated //armlint:itersrc (chunk claimers like
//     sched.Cursor.Next, transaction scanners like db.Database.Items,
//     segment loaders like seg.Reader.LoadSegment) or one that transitively
//     calls such a function.
//   - The obligation is met when the loop condition or body reaches a
//     cancellation check: a direct ctx.Err()/ctx.Done()/ctx.Deadline(), or
//     a call to a function that Polls (directly, transitively, or by
//     //armlint:polls annotation — robust.Canceled, seg.Pipeline.take).
//
// An inner loop's poll satisfies every enclosing loop (the check is subtree
// containment), and `for ctx.Err() == nil { ... }` conditions count. Loops
// whose per-iteration work is bounded by construction (one chunk, one
// segment already gated at the claim) assert it with
// //armlint:allow ctxpoll <reason>.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "scan loops reachable from cancellable roots reach a cancellation check",
	Run:  runCtxPoll,
}

func runCtxPoll(pass *Pass) {
	g := pass.Graph
	if g == nil || len(g.CancellableReach) == 0 {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			fn := funcObj(pass.Info, fd)
			if fn == nil || !g.CancellableReach[fn] {
				return true
			}
			checkCtxPoll(pass, fd)
			return false
		})
	}
}

func checkCtxPoll(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var cond ast.Expr
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			cond, body = loop.Cond, loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		src := iterSource(pass, body)
		if src == "" {
			return true
		}
		if (cond != nil && pollsIn(pass, cond)) || pollsIn(pass, body) {
			return true
		}
		pass.Reportf(n.Pos(), "loop calls %s (an iteration source) without reaching a cancellation check; poll ctx.Err() in the loop, call through an //armlint:polls helper, or assert boundedness with //armlint:allow ctxpoll <reason>", src)
		return true
	})
}

// iterSource returns the name of the first iteration-source function the
// loop body calls, or "" when the loop owes no poll.
func iterSource(pass *Pass, body ast.Node) string {
	name := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calledFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		if node := pass.Graph.Nodes[fn]; node != nil && node.IterSrc {
			name = fn.Name()
			return false
		}
		return true
	})
	return name
}

// pollsIn reports whether the subtree contains a cancellation check: a
// direct context poll or a call to a Polls function.
func pollsIn(pass *Pass, node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isCtxPollCall(pass.Info, call) {
			found = true
			return false
		}
		if fn := calledFunc(pass.Info, call); fn != nil {
			if n := pass.Graph.Nodes[fn]; n != nil && n.Polls {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
