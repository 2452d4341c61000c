package ast

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Print renders the tree as JavaScript source text.
//
// The output is canonical rather than faithful to the original layout:
// sub-expressions are fully parenthesized so that printing is independent
// of operator precedence, and statements are newline-separated with
// explicit semicolons. Print(parse(Print(n))) == Print(n) for all trees
// the parser produces, which the property tests rely on.
func Print(n Node) string {
	var p printer
	p.node(n)
	return p.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

// quasiEscaper escapes a cooked template chunk so it lexes back to itself.
var quasiEscaper = strings.NewReplacer(`\`, `\\`, "`", "\\`", "${", `\${`)

func (p *printer) ws() {
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("  ")
	}
}

func (p *printer) node(n Node) {
	switch n := n.(type) {
	case *Program:
		for _, s := range n.Body {
			p.stmt(s)
		}
	case Stmt:
		p.stmt(n)
	case Expr:
		p.expr(n)
	}
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *VarDecl:
		p.ws()
		p.sb.WriteString(string(s.Kind))
		p.sb.WriteByte(' ')
		for i, d := range s.Decls {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			p.sb.WriteString(d.Name)
			if d.Init != nil {
				p.sb.WriteString(" = ")
				p.expr(d.Init)
			}
		}
		p.sb.WriteString(";\n")
	case *FuncDecl:
		p.ws()
		p.funcLit(s.Fn, true)
		p.sb.WriteByte('\n')
	case *ExprStmt:
		p.ws()
		p.expr(s.X)
		p.sb.WriteString(";\n")
	case *BlockStmt:
		p.ws()
		p.block(s)
		p.sb.WriteByte('\n')
	case *IfStmt:
		p.ws()
		p.sb.WriteString("if (")
		p.expr(s.Cond)
		p.sb.WriteString(")\n")
		p.nested(s.Then)
		if s.Else != nil {
			p.ws()
			p.sb.WriteString("else\n")
			p.nested(s.Else)
		}
	case *WhileStmt:
		p.ws()
		p.sb.WriteString("while (")
		p.expr(s.Cond)
		p.sb.WriteString(")\n")
		p.nested(s.Body)
	case *DoWhileStmt:
		p.ws()
		p.sb.WriteString("do\n")
		p.nested(s.Body)
		p.ws()
		p.sb.WriteString("while (")
		p.expr(s.Cond)
		p.sb.WriteString(");\n")
	case *ForStmt:
		p.ws()
		p.sb.WriteString("for (")
		switch init := s.Init.(type) {
		case nil:
		case *VarDecl:
			p.sb.WriteString(string(init.Kind))
			p.sb.WriteByte(' ')
			for i, d := range init.Decls {
				if i > 0 {
					p.sb.WriteString(", ")
				}
				p.sb.WriteString(d.Name)
				if d.Init != nil {
					p.sb.WriteString(" = ")
					p.expr(d.Init)
				}
			}
		case *ExprStmt:
			p.expr(init.X)
		}
		p.sb.WriteString("; ")
		if s.Cond != nil {
			p.expr(s.Cond)
		}
		p.sb.WriteString("; ")
		if s.Post != nil {
			p.expr(s.Post)
		}
		p.sb.WriteString(")\n")
		p.nested(s.Body)
	case *ForInStmt:
		p.ws()
		p.sb.WriteString("for (")
		if s.DeclKind != "" {
			p.sb.WriteString(string(s.DeclKind))
			p.sb.WriteByte(' ')
		}
		p.sb.WriteString(s.Name)
		if s.IsOf {
			p.sb.WriteString(" of ")
		} else {
			p.sb.WriteString(" in ")
		}
		p.expr(s.Obj)
		p.sb.WriteString(")\n")
		p.nested(s.Body)
	case *ReturnStmt:
		p.ws()
		p.sb.WriteString("return")
		if s.X != nil {
			p.sb.WriteByte(' ')
			p.expr(s.X)
		}
		p.sb.WriteString(";\n")
	case *BreakStmt:
		p.ws()
		p.sb.WriteString("break;\n")
	case *ContinueStmt:
		p.ws()
		p.sb.WriteString("continue;\n")
	case *ThrowStmt:
		p.ws()
		p.sb.WriteString("throw ")
		p.expr(s.X)
		p.sb.WriteString(";\n")
	case *TryStmt:
		p.ws()
		p.sb.WriteString("try ")
		p.block(s.Block)
		if s.Catch != nil {
			p.sb.WriteString(" catch ")
			if s.CatchParam != "" {
				p.sb.WriteByte('(')
				p.sb.WriteString(s.CatchParam)
				p.sb.WriteString(") ")
			}
			p.block(s.Catch)
		}
		if s.Finally != nil {
			p.sb.WriteString(" finally ")
			p.block(s.Finally)
		}
		p.sb.WriteByte('\n')
	case *SwitchStmt:
		p.ws()
		p.sb.WriteString("switch (")
		p.expr(s.Disc)
		p.sb.WriteString(") {\n")
		p.indent++
		for _, c := range s.Cases {
			p.ws()
			if c.Test == nil {
				p.sb.WriteString("default:\n")
			} else {
				p.sb.WriteString("case ")
				p.expr(c.Test)
				p.sb.WriteString(":\n")
			}
			p.indent++
			for _, st := range c.Body {
				p.stmt(st)
			}
			p.indent--
		}
		p.indent--
		p.ws()
		p.sb.WriteString("}\n")
	case *EmptyStmt:
		p.ws()
		p.sb.WriteString(";\n")
	default:
		panic(fmt.Sprintf("ast.Print: unknown statement %T", s))
	}
}

// nested prints a statement as the body of a control construct, always as a
// block so the output re-parses unambiguously.
func (p *printer) nested(s Stmt) {
	p.ws()
	if b, ok := s.(*BlockStmt); ok {
		p.block(b)
		p.sb.WriteByte('\n')
		return
	}
	p.sb.WriteString("{\n")
	p.indent++
	p.stmt(s)
	p.indent--
	p.ws()
	p.sb.WriteString("}\n")
}

func (p *printer) block(b *BlockStmt) {
	p.sb.WriteString("{\n")
	p.indent++
	for _, s := range b.Body {
		p.stmt(s)
	}
	p.indent--
	p.ws()
	p.sb.WriteByte('}')
}

func (p *printer) funcLit(f *FuncLit, decl bool) {
	if f.IsAsync {
		p.sb.WriteString("async ")
	}
	if f.IsArrow {
		p.sb.WriteByte('(')
		p.params(f)
		p.sb.WriteString(") => ")
		if f.ExprBody != nil {
			p.sb.WriteByte('(')
			p.expr(f.ExprBody)
			p.sb.WriteByte(')')
		} else {
			p.block(f.Body)
		}
		return
	}
	p.sb.WriteString("function")
	if f.IsGenerator {
		p.sb.WriteByte('*')
	}
	if f.Name != "" {
		p.sb.WriteByte(' ')
		p.sb.WriteString(f.Name)
	}
	p.sb.WriteByte('(')
	p.params(f)
	p.sb.WriteString(") ")
	p.block(f.Body)
	_ = decl
}

// isMethod reports whether a normal property prints as a method: its
// value is a plain function named after its key, as the parser makes of
// key() {}. The key may not be a valid function name ({function() {}}),
// so printing it as one would not parse.
func isMethod(prop *Property, f *FuncLit) bool {
	return prop.Computed == nil && prop.Key != "" && f.Name == prop.Key &&
		!f.IsArrow && !f.IsAsync && !f.IsGenerator
}

func (p *printer) params(f *FuncLit) {
	for i, name := range f.Params {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		if i == f.RestIdx {
			p.sb.WriteString("...")
		}
		p.sb.WriteString(name)
	}
}

func (p *printer) expr(e Expr) {
	switch e := e.(type) {
	case *Ident:
		p.sb.WriteString(e.Name)
	case *NumberLit:
		if math.IsInf(e.Value, 1) {
			// FormatFloat's +Inf does not lex; an overflowing literal does.
			p.sb.WriteString("1e999")
		} else {
			p.sb.WriteString(strconv.FormatFloat(e.Value, 'g', -1, 64))
		}
	case *StringLit:
		p.sb.WriteString(quoteJS(e.Value))
	case *BoolLit:
		if e.Value {
			p.sb.WriteString("true")
		} else {
			p.sb.WriteString("false")
		}
	case *NullLit:
		p.sb.WriteString("null")
	case *UndefinedLit:
		p.sb.WriteString("undefined")
	case *RegexLit:
		p.sb.WriteByte('/')
		p.sb.WriteString(e.Pattern)
		p.sb.WriteByte('/')
		p.sb.WriteString(e.Flags)
	case *TemplateLit:
		p.sb.WriteByte('`')
		for i, q := range e.Quasis {
			p.sb.WriteString(quasiEscaper.Replace(q))
			if i < len(e.Exprs) {
				p.sb.WriteString("${")
				p.expr(e.Exprs[i])
				p.sb.WriteByte('}')
			}
		}
		p.sb.WriteByte('`')
	case *ArrayLit:
		p.sb.WriteByte('[')
		for i, el := range e.Elems {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			if el != nil {
				p.expr(el)
			}
		}
		if n := len(e.Elems); n > 0 && e.Elems[n-1] == nil {
			// A trailing hole needs its own comma: [a, ,] has two elements.
			p.sb.WriteByte(',')
		}
		p.sb.WriteByte(']')
	case *ObjectLit:
		p.sb.WriteString("({")
		for i, prop := range e.Props {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			switch prop.Kind {
			case GetterProp:
				p.sb.WriteString("get ")
			case SetterProp:
				p.sb.WriteString("set ")
			}
			if prop.Computed != nil {
				p.sb.WriteByte('[')
				p.expr(prop.Computed)
				p.sb.WriteByte(']')
			} else if isIdentName(prop.Key) {
				p.sb.WriteString(prop.Key)
			} else {
				p.sb.WriteString(quoteJS(prop.Key))
			}
			if f, ok := prop.Value.(*FuncLit); ok && (prop.Kind != NormalProp || isMethod(prop, f)) {
				// accessor or method: print the function's parameter list
				// and body
				p.sb.WriteByte('(')
				p.params(f)
				p.sb.WriteString(") ")
				p.block(f.Body)
			} else {
				p.sb.WriteString(": ")
				p.expr(prop.Value)
			}
		}
		p.sb.WriteString("})")
	case *FuncLit:
		p.sb.WriteByte('(')
		p.funcLit(e, false)
		p.sb.WriteByte(')')
	case *CallExpr:
		p.expr(e.Callee)
		p.args(e.Args)
	case *NewExpr:
		p.sb.WriteString("new ")
		p.expr(e.Callee)
		p.args(e.Args)
	case *MemberExpr:
		if _, ok := e.Obj.(*NumberLit); ok && !e.Computed {
			// 0.x would lex as the number "0." followed by x.
			p.sb.WriteByte('(')
			p.expr(e.Obj)
			p.sb.WriteByte(')')
		} else {
			p.expr(e.Obj)
		}
		if e.Computed {
			p.sb.WriteByte('[')
			p.expr(e.PropExpr)
			p.sb.WriteByte(']')
		} else {
			p.sb.WriteByte('.')
			p.sb.WriteString(e.Prop)
		}
	case *AssignExpr:
		p.sb.WriteByte('(')
		p.expr(e.Target)
		p.sb.WriteByte(' ')
		p.sb.WriteString(e.Op)
		p.sb.WriteByte(' ')
		p.expr(e.Value)
		p.sb.WriteByte(')')
	case *BinaryExpr:
		p.sb.WriteByte('(')
		p.expr(e.L)
		p.sb.WriteByte(' ')
		p.sb.WriteString(e.Op)
		p.sb.WriteByte(' ')
		p.expr(e.R)
		p.sb.WriteByte(')')
	case *LogicalExpr:
		p.sb.WriteByte('(')
		p.expr(e.L)
		p.sb.WriteByte(' ')
		p.sb.WriteString(e.Op)
		p.sb.WriteByte(' ')
		p.expr(e.R)
		p.sb.WriteByte(')')
	case *UnaryExpr:
		p.sb.WriteByte('(')
		p.sb.WriteString(e.Op)
		if len(e.Op) > 1 { // typeof, void, delete
			p.sb.WriteByte(' ')
		}
		p.expr(e.X)
		p.sb.WriteByte(')')
	case *UpdateExpr:
		p.sb.WriteByte('(')
		if e.Prefix {
			p.sb.WriteString(e.Op)
			p.expr(e.X)
		} else {
			p.expr(e.X)
			p.sb.WriteString(e.Op)
		}
		p.sb.WriteByte(')')
	case *CondExpr:
		p.sb.WriteByte('(')
		p.expr(e.Cond)
		p.sb.WriteString(" ? ")
		p.expr(e.Then)
		p.sb.WriteString(" : ")
		p.expr(e.Else)
		p.sb.WriteByte(')')
	case *SeqExpr:
		p.sb.WriteByte('(')
		for i, x := range e.Exprs {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			p.expr(x)
		}
		p.sb.WriteByte(')')
	case *ThisExpr:
		p.sb.WriteString("this")
	case *SpreadExpr:
		p.sb.WriteString("...")
		p.expr(e.X)
	case *YieldExpr:
		p.sb.WriteString("(yield")
		if e.Delegate {
			p.sb.WriteByte('*')
		}
		if e.X != nil {
			p.sb.WriteByte(' ')
			p.expr(e.X)
		}
		p.sb.WriteByte(')')
	default:
		panic(fmt.Sprintf("ast.Print: unknown expression %T", e))
	}
}

func (p *printer) args(args []Expr) {
	p.sb.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		p.expr(a)
	}
	p.sb.WriteByte(')')
}

func isIdentName(s string) bool {
	if s == "" || lexKeyword(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// lexKeyword mirrors the lexer's reserved-word set for names that cannot be
// printed bare as object keys without re-parsing as keywords. Contextual
// keywords are fine as keys.
func lexKeyword(s string) bool {
	switch s {
	case "break", "case", "catch", "class", "const", "continue", "default",
		"delete", "do", "else", "extends", "false", "finally", "for",
		"function", "if", "in", "instanceof", "let", "new", "null", "of",
		"return", "static", "switch", "this", "throw", "true", "try",
		"typeof", "undefined", "var", "void", "while", "get", "set":
		return true
	}
	return false
}

func quoteJS(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		case '\r':
			sb.WriteString(`\r`)
		default:
			if c < 0x20 {
				fmt.Fprintf(&sb, `\x%02x`, c)
			} else {
				sb.WriteByte(c)
			}
		}
	}
	sb.WriteByte('"')
	return sb.String()
}
