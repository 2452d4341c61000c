package ast

import (
	"strings"
	"testing"

	"repro/internal/loc"
)

func l(line, col int) loc.Loc { return loc.Loc{File: "t.js", Line: line, Col: col} }

// buildTree constructs a small tree by hand:
//
//	function f(x) { return g(x + 1); }
//	var o = {m: function() {}};
//	o.m(new T());
func buildTree() *Program {
	fnBody := &BlockStmt{
		Body: []Stmt{
			&ReturnStmt{
				X: &CallExpr{
					Callee: &Ident{Name: "g", Loc: l(1, 24)},
					Args: []Expr{&BinaryExpr{
						Op: "+",
						L:  &Ident{Name: "x", Loc: l(1, 26)},
						R:  &NumberLit{Value: 1, Loc: l(1, 30)},
					}},
					Loc: l(1, 25),
				},
				Loc: l(1, 17),
			},
		},
		Loc: l(1, 15),
	}
	f := &FuncLit{Name: "f", Params: []string{"x"}, RestIdx: -1, Body: fnBody, Loc: l(1, 1)}
	inner := &FuncLit{RestIdx: -1, Body: &BlockStmt{Loc: l(2, 13)}, Loc: l(2, 13)}
	objLit := &ObjectLit{Props: []*Property{{Key: "m", Value: inner, Loc: l(2, 10)}}, Loc: l(2, 9)}
	call := &CallExpr{
		Callee: &MemberExpr{Obj: &Ident{Name: "o", Loc: l(3, 1)}, Prop: "m", Loc: l(3, 2)},
		Args:   []Expr{&NewExpr{Callee: &Ident{Name: "T", Loc: l(3, 9)}, Loc: l(3, 5)}},
		Loc:    l(3, 4),
	}
	return &Program{
		File: "t.js",
		Body: []Stmt{
			&FuncDecl{Fn: f},
			&VarDecl{Kind: Var, Decls: []*Declarator{{Name: "o", Init: objLit, Loc: l(2, 5)}}, Loc: l(2, 1)},
			&ExprStmt{X: call},
		},
	}
}

func TestWalkVisitsEverything(t *testing.T) {
	var kinds []string
	Walk(buildTree(), func(n Node) bool {
		kinds = append(kinds, strings.TrimPrefix(strings.TrimPrefix(
			strings.Split(strings.TrimPrefix(typename(n), "*"), ".")[1], "ast."), "*"))
		return true
	})
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"Program", "FuncDecl", "FuncLit", "ReturnStmt",
		"CallExpr", "BinaryExpr", "VarDecl", "ObjectLit", "MemberExpr", "NewExpr"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Walk missed %s; visited: %s", want, joined)
		}
	}
}

func typename(n Node) string {
	switch n.(type) {
	case *Program:
		return "*ast.Program"
	case *FuncDecl:
		return "*ast.FuncDecl"
	case *FuncLit:
		return "*ast.FuncLit"
	case *ReturnStmt:
		return "*ast.ReturnStmt"
	case *CallExpr:
		return "*ast.CallExpr"
	case *BinaryExpr:
		return "*ast.BinaryExpr"
	case *VarDecl:
		return "*ast.VarDecl"
	case *ObjectLit:
		return "*ast.ObjectLit"
	case *MemberExpr:
		return "*ast.MemberExpr"
	case *NewExpr:
		return "*ast.NewExpr"
	case *BlockStmt:
		return "*ast.BlockStmt"
	case *ExprStmt:
		return "*ast.ExprStmt"
	default:
		return "*ast.Other"
	}
}

func TestWalkSkipChildren(t *testing.T) {
	// Returning false at function literals must hide their bodies.
	var calls int
	Walk(buildTree(), func(n Node) bool {
		if _, ok := n.(*CallExpr); ok {
			calls++
		}
		if _, ok := n.(*FuncLit); ok {
			return false
		}
		return true
	})
	// Only the top-level o.m(new T()) call remains; g(x+1) is inside f.
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (skip must prune function bodies)", calls)
	}
}

// countNodes counts the nodes of type T that Walk visits in the tree.
func countNodes[T Node](n Node) int {
	count := 0
	Walk(n, func(n Node) bool {
		if _, ok := n.(T); ok {
			count++
		}
		return true
	})
	return count
}

func TestCollectors(t *testing.T) {
	tree := buildTree()
	if got := len(Functions(tree)); got != 2 {
		t.Errorf("Functions = %d, want 2", got)
	}
	if got := countNodes[*CallExpr](tree); got != 2 {
		t.Errorf("call expressions = %d, want 2", got)
	}
	if got := countNodes[*NewExpr](tree); got != 1 {
		t.Errorf("new expressions = %d, want 1", got)
	}
	// Source order.
	fns := Functions(tree)
	if !fns[0].Loc.Before(fns[1].Loc) {
		t.Error("Functions not in source order")
	}
}

func TestPosPropagation(t *testing.T) {
	tree := buildTree()
	if tree.Pos() != (loc.Loc{File: "t.js", Line: 1, Col: 1}) {
		t.Errorf("program pos = %v", tree.Pos())
	}
	fd := tree.Body[0].(*FuncDecl)
	if fd.Pos() != l(1, 1) {
		t.Errorf("func decl pos = %v", fd.Pos())
	}
	es := tree.Body[2].(*ExprStmt)
	if es.Pos() != l(3, 4) {
		t.Errorf("expr stmt pos = %v (should delegate to expression)", es.Pos())
	}
}

func TestPrintHandBuiltTree(t *testing.T) {
	out := Print(buildTree())
	for _, want := range []string{
		"function f(x)", "return g((x + 1));", "var o = ({m: (function", "o.m(new T())",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q:\n%s", want, out)
		}
	}
}

func TestPrintQuoting(t *testing.T) {
	s := &StringLit{Value: "a\"b\\c\nd\te", Loc: l(1, 1)}
	out := Print(s)
	if out != `"a\"b\\c\nd\te"` {
		t.Errorf("quoted = %s", out)
	}
	// Keyword object keys must stay quoted; contextual keywords may be bare.
	obj := &ObjectLit{Props: []*Property{
		{Key: "function", Value: &NumberLit{Value: 1}},
		{Key: "of", Value: &NumberLit{Value: 2}},
		{Key: "has space", Value: &NumberLit{Value: 3}},
	}, Loc: l(1, 1)}
	out = Print(obj)
	if !strings.Contains(out, `"function": 1`) {
		t.Errorf("keyword key not quoted: %s", out)
	}
	if !strings.Contains(out, `"has space": 3`) {
		t.Errorf("spaced key not quoted: %s", out)
	}
}

func TestPrintRestParams(t *testing.T) {
	f := &FuncLit{
		Name:    "r",
		Params:  []string{"a", "rest"},
		RestIdx: 1,
		Body:    &BlockStmt{Loc: l(1, 1)},
		Loc:     l(1, 1),
	}
	out := Print(&FuncDecl{Fn: f})
	if !strings.Contains(out, "function r(a, ...rest)") {
		t.Errorf("rest param printing wrong: %s", out)
	}
}
