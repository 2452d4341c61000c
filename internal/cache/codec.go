// AST serialization for the persistent store. The AST is a pure tree of
// exported fields, so encoding/gob round-trips it exactly; every concrete
// node type that can sit behind an ast.Stmt/ast.Expr interface field is
// registered here so decoded trees come back with the right dynamic types.
package cache

import (
	"bytes"
	"encoding/gob"

	"repro/internal/ast"
)

func init() {
	for _, n := range []any{
		// Statements.
		&ast.VarDecl{}, &ast.FuncDecl{}, &ast.ExprStmt{}, &ast.BlockStmt{},
		&ast.IfStmt{}, &ast.WhileStmt{}, &ast.DoWhileStmt{}, &ast.ForStmt{},
		&ast.ForInStmt{}, &ast.ReturnStmt{}, &ast.BreakStmt{}, &ast.ContinueStmt{},
		&ast.ThrowStmt{}, &ast.TryStmt{}, &ast.SwitchStmt{}, &ast.EmptyStmt{},
		// Expressions.
		&ast.Ident{}, &ast.NumberLit{}, &ast.StringLit{}, &ast.BoolLit{},
		&ast.NullLit{}, &ast.UndefinedLit{}, &ast.RegexLit{}, &ast.TemplateLit{},
		&ast.ArrayLit{}, &ast.ObjectLit{}, &ast.FuncLit{}, &ast.CallExpr{},
		&ast.NewExpr{}, &ast.MemberExpr{}, &ast.AssignExpr{}, &ast.BinaryExpr{},
		&ast.LogicalExpr{}, &ast.UnaryExpr{}, &ast.UpdateExpr{}, &ast.CondExpr{},
		&ast.SeqExpr{}, &ast.ThisExpr{}, &ast.SpreadExpr{},
	} {
		gob.Register(n)
	}
}

// EncodeAST serializes a parsed program.
func EncodeAST(prog *ast.Program) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(prog); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeAST deserializes a program written by EncodeAST.
func DecodeAST(data []byte) (*ast.Program, error) {
	var prog ast.Program
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&prog); err != nil {
		return nil, err
	}
	return &prog, nil
}

// LoadAST implements modules.ParseStore: it returns the cached parse of a
// source key, or ok=false on any miss (absent, corrupt, undecodable).
func (s *Store) LoadAST(key string) (prog *ast.Program, ok bool) {
	ok = s.Get(KindAST, key, func(payload []byte) (err error) {
		prog, err = DecodeAST(payload)
		return err
	})
	return prog, ok
}

// StoreAST implements modules.ParseStore. Encoding or write failures are
// dropped: the cache is an accelerator, never a correctness dependency.
func (s *Store) StoreAST(key string, prog *ast.Program) {
	payload, err := EncodeAST(prog)
	if err != nil {
		return
	}
	_ = s.Put(KindAST, key, payload)
}
