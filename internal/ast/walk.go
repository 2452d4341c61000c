package ast

// Walk traverses the tree rooted at n in depth-first pre-order, calling fn
// for every node. If fn returns false the node's children are skipped.
// Nil children are never visited.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch n := n.(type) {
	case *Program:
		walkStmts(n.Body, fn)
	case *VarDecl:
		for _, d := range n.Decls {
			walkExpr(d.Init, fn)
		}
	case *FuncDecl:
		Walk(n.Fn, fn)
	case *ExprStmt:
		walkExpr(n.X, fn)
	case *BlockStmt:
		walkStmts(n.Body, fn)
	case *IfStmt:
		walkExpr(n.Cond, fn)
		walkStmt(n.Then, fn)
		walkStmt(n.Else, fn)
	case *WhileStmt:
		walkExpr(n.Cond, fn)
		walkStmt(n.Body, fn)
	case *DoWhileStmt:
		walkStmt(n.Body, fn)
		walkExpr(n.Cond, fn)
	case *ForStmt:
		walkStmt(n.Init, fn)
		walkExpr(n.Cond, fn)
		walkExpr(n.Post, fn)
		walkStmt(n.Body, fn)
	case *ForInStmt:
		walkExpr(n.Obj, fn)
		walkStmt(n.Body, fn)
	case *ReturnStmt:
		walkExpr(n.X, fn)
	case *ThrowStmt:
		walkExpr(n.X, fn)
	case *TryStmt:
		walkStmt(n.Block, fn)
		walkStmt(n.Catch, fn)
		walkStmt(n.Finally, fn)
	case *SwitchStmt:
		walkExpr(n.Disc, fn)
		for _, c := range n.Cases {
			walkStmts(c.Body, fn)
		}
	case *TemplateLit:
		for _, e := range n.Exprs {
			walkExpr(e, fn)
		}
	case *ArrayLit:
		for _, e := range n.Elems {
			walkExpr(e, fn)
		}
	case *ObjectLit:
		for _, p := range n.Props {
			walkExpr(p.Computed, fn)
			walkExpr(p.Value, fn)
		}
	case *FuncLit:
		walkStmt(n.Body, fn)
		walkExpr(n.ExprBody, fn)
	case *CallExpr:
		walkExpr(n.Callee, fn)
		for _, a := range n.Args {
			walkExpr(a, fn)
		}
	case *NewExpr:
		walkExpr(n.Callee, fn)
		for _, a := range n.Args {
			walkExpr(a, fn)
		}
	case *MemberExpr:
		walkExpr(n.Obj, fn)
		walkExpr(n.PropExpr, fn)
	case *AssignExpr:
		walkExpr(n.Target, fn)
		walkExpr(n.Value, fn)
	case *BinaryExpr:
		walkExpr(n.L, fn)
		walkExpr(n.R, fn)
	case *LogicalExpr:
		walkExpr(n.L, fn)
		walkExpr(n.R, fn)
	case *UnaryExpr:
		walkExpr(n.X, fn)
	case *UpdateExpr:
		walkExpr(n.X, fn)
	case *CondExpr:
		walkExpr(n.Cond, fn)
		walkExpr(n.Then, fn)
		walkExpr(n.Else, fn)
	case *SeqExpr:
		for _, e := range n.Exprs {
			walkExpr(e, fn)
		}
	case *SpreadExpr:
		walkExpr(n.X, fn)
	case *YieldExpr:
		walkExpr(n.X, fn)
	}
}

func walkStmts(ss []Stmt, fn func(Node) bool) {
	for _, s := range ss {
		walkStmt(s, fn)
	}
}

func walkStmt(s Stmt, fn func(Node) bool) {
	switch s := s.(type) {
	case nil:
		return
	case *BlockStmt:
		if s == nil {
			return
		}
		Walk(s, fn)
	default:
		Walk(s, fn)
	}
}

func walkExpr(e Expr, fn func(Node) bool) {
	if e == nil {
		return
	}
	Walk(e, fn)
}

// Functions returns every function definition in the tree, in source order,
// including nested functions.
func Functions(n Node) []*FuncLit {
	var out []*FuncLit
	Walk(n, func(n Node) bool {
		if f, ok := n.(*FuncLit); ok {
			out = append(out, f)
		}
		return true
	})
	return out
}
