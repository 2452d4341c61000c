// Package parser implements a recursive-descent parser for the JavaScript
// subset, producing internal/ast trees.
//
// The parser supports the constructs required by the corpus and the paper's
// core language (Fig. 2) plus the surrounding real-language features:
// functions in all three syntactic forms, closures, objects with computed
// keys and accessors, arrays, dynamic and static property accesses, new,
// this, full statement forms, template literals, regex literals, spread in
// calls and arrays, and automatic semicolon insertion.
package parser

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/loc"
)

// Error is a parse error at a specific source location.
type Error struct {
	Loc loc.Loc
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Loc, e.Msg) }

// Parse parses the source text of one module.
func Parse(file, src string) (prog *ast.Program, err error) {
	toks, err := lexer.New(file, src).All()
	if err != nil {
		return nil, err
	}
	p := &parser{file: file, toks: toks}
	prog = &ast.Program{File: file}
	defer p.catchBailout(&err)
	for !p.at(lexer.EOF) {
		prog.Body = append(prog.Body, p.statement())
	}
	p.applyESMLiveBindings(prog)
	return prog, err
}

// ParseExpr parses a single expression (used by eval-style entry points and
// tests). The expression must consume the entire input.
func ParseExpr(file, src string) (ast.Expr, error) { return parseExpr(lexer.New(file, src), file, 0) }

// parseExpr is ParseExpr over lx for an expression nested depth levels
// deep.
func parseExpr(lx *lexer.Lexer, file string, depth int) (e ast.Expr, err error) {
	toks, lerr := lx.All()
	if lerr != nil {
		return nil, lerr
	}
	p := &parser{file: file, toks: toks, depth: depth}
	defer p.catchBailout(&err)
	e = p.expression()
	if !p.at(lexer.EOF) {
		return nil, &Error{p.peek().Loc(p.file), "unexpected trailing input"}
	}
	return e, err
}

type parser struct {
	file string
	toks []lexer.Token
	pos  int

	// ESM live-binding records, filled by importStmt/exportStmt and applied
	// as a whole-module rewrite after parsing (see esmodules.go).
	esmImports []*esmImport
	esmExports []*esmExport

	// closes memoizes closeOf: for the bracket at toks[i], 0 while
	// unscanned, -1 if it never closes, else its close's index plus one.
	// scanned counts the tokens closeOf has examined.
	closes  []int32
	scanned int

	// depth is the current nesting of statements, assignment expressions,
	// unary expressions and new expressions; see maxDepth.
	depth int
}

// maxDepth bounds parser recursion. Each nesting level holds a chain of
// stack frames, and a goroutine that outgrows its stack kills the whole
// process, so input nested deeper is an ordinary parse error instead. One
// parenthesis level costs two (an assignment and a unary expression). The
// corpus nests to at most 23 and the testgen grammars to at most 18.
const maxDepth = 2000

func (p *parser) enter() {
	p.depth++
	if p.depth > maxDepth {
		p.fail(p.peek().Loc(p.file), "nesting deeper than %d levels", maxDepth)
	}
}

func (p *parser) leave() { p.depth-- }

// bailout carries a parse error up through the recursive descent.
type bailout struct{ err *Error }

func (p *parser) catchBailout(err *error) {
	if r := recover(); r != nil {
		if b, ok := r.(bailout); ok {
			*err = b.err
			return
		}
		// A non-bailout panic is a parser bug (index out of range, nil
		// dereference, …). Parse is a total function over arbitrary input —
		// corrupt files must degrade one module, never crash the run — so
		// the bug surfaces as a parse error carrying the file and the
		// position the parser had reached, instead of unwinding further.
		l := loc.Loc{File: p.file, Line: 1, Col: 1}
		if p.pos < len(p.toks) {
			l = p.toks[p.pos].Loc(p.file)
		} else if len(p.toks) > 0 {
			l = p.toks[len(p.toks)-1].Loc(p.file)
		}
		*err = &Error{l, fmt.Sprintf("internal parser panic: %v", r)}
	}
}

func (p *parser) fail(l loc.Loc, format string, args ...any) {
	panic(bailout{&Error{l, fmt.Sprintf(format, args...)}})
}

func (p *parser) peek() lexer.Token { return p.toks[p.pos] }

func (p *parser) peekAt(off int) lexer.Token {
	if p.pos+off >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.pos+off]
}

func (p *parser) next() lexer.Token {
	t := p.toks[p.pos]
	if t.Kind != lexer.EOF {
		p.pos++
	}
	return t
}

func (p *parser) at(k lexer.Kind) bool { return p.peek().Kind == k }

func (p *parser) atPunct(text string) bool {
	t := p.peek()
	return t.Kind == lexer.Punct && t.Text == text
}

func (p *parser) atKeyword(text string) bool {
	t := p.peek()
	return t.Kind == lexer.Keyword && t.Text == text
}

func (p *parser) eatPunct(text string) bool {
	if p.atPunct(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) eatKeyword(text string) bool {
	if p.atKeyword(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(text string) lexer.Token {
	if !p.atPunct(text) {
		t := p.peek()
		p.fail(t.Loc(p.file), "expected %q but found %s", text, t)
	}
	return p.next()
}

func (p *parser) expectKeyword(text string) lexer.Token {
	if !p.atKeyword(text) {
		t := p.peek()
		p.fail(t.Loc(p.file), "expected keyword %q but found %s", text, t)
	}
	return p.next()
}

// identName consumes an identifier (allowing contextual keywords) and
// returns its name.
func (p *parser) identName() (string, loc.Loc) {
	t := p.peek()
	if t.Kind == lexer.Ident || (t.Kind == lexer.Keyword && lexer.IsContextualKeyword(t.Text)) {
		p.pos++
		return t.Text, t.Loc(p.file)
	}
	p.fail(t.Loc(p.file), "expected identifier but found %s", t)
	return "", loc.Loc{}
}

// expectSemi implements automatic semicolon insertion: a statement ends at
// an explicit semicolon, before '}', at EOF, or at a line break.
func (p *parser) expectSemi() {
	if p.eatPunct(";") {
		return
	}
	t := p.peek()
	if t.Kind == lexer.EOF || (t.Kind == lexer.Punct && t.Text == "}") || t.NewlineBefore {
		return
	}
	p.fail(t.Loc(p.file), "expected ';' but found %s", t)
}

// ---------------------------------------------------------------- statements

func (p *parser) statement() ast.Stmt {
	p.enter()
	defer p.leave()
	if st, ok := p.tryModuleStmt(); ok {
		return st
	}
	t := p.peek()
	switch {
	case t.Kind == lexer.Punct && t.Text == "{":
		return p.blockStmt()
	case t.Kind == lexer.Punct && t.Text == ";":
		p.next()
		return &ast.EmptyStmt{Loc: t.Loc(p.file)}
	case t.Kind == lexer.Keyword:
		switch t.Text {
		case "var", "const":
			return p.varDecl()
		case "let":
			// "let" is contextual: `let x = …` is a declaration, anything
			// else treats it as an identifier expression.
			if n := p.peekAt(1); n.Kind == lexer.Ident || (n.Kind == lexer.Keyword && lexer.IsContextualKeyword(n.Text)) {
				return p.varDecl()
			}
		case "function":
			return p.funcDeclStmt()
		case "async":
			if n := p.peekAt(1); n.Kind == lexer.Keyword && n.Text == "function" && !n.NewlineBefore {
				p.next() // consume async
				fn := p.funcLit(true)
				fn.IsAsync = true
				return &ast.FuncDecl{Fn: fn}
			}
		case "if":
			return p.ifStmt()
		case "while":
			return p.whileStmt()
		case "do":
			return p.doWhileStmt()
		case "for":
			return p.forStmt()
		case "return":
			return p.returnStmt()
		case "break":
			p.next()
			p.expectSemi()
			return &ast.BreakStmt{Loc: t.Loc(p.file)}
		case "continue":
			p.next()
			p.expectSemi()
			return &ast.ContinueStmt{Loc: t.Loc(p.file)}
		case "throw":
			return p.throwStmt()
		case "try":
			return p.tryStmt()
		case "switch":
			return p.switchStmt()
		case "class":
			// Class declarations desugar to `var Name = (function(){…})()`.
			expr, name := p.classExpr()
			if name == "" {
				p.fail(t.Loc(p.file), "class declaration requires a name")
			}
			p.expectSemi()
			return &ast.VarDecl{
				Kind:  ast.Var,
				Decls: []*ast.Declarator{{Name: name, Init: expr, Loc: t.Loc(p.file)}},
				Loc:   t.Loc(p.file),
			}
		}
	}
	x := p.expression()
	p.expectSemi()
	return &ast.ExprStmt{X: x}
}

func (p *parser) blockStmt() *ast.BlockStmt {
	open := p.expectPunct("{")
	b := &ast.BlockStmt{Loc: open.Loc(p.file)}
	for !p.atPunct("}") && !p.at(lexer.EOF) {
		b.Body = append(b.Body, p.statement())
	}
	p.expectPunct("}")
	return b
}

func (p *parser) varDecl() *ast.VarDecl {
	kw := p.next()
	d := &ast.VarDecl{Kind: ast.VarKind(kw.Text), Loc: kw.Loc(p.file)}
	for {
		name, nloc := p.identName()
		decl := &ast.Declarator{Name: name, Loc: nloc}
		if p.eatPunct("=") {
			decl.Init = p.assignExpr()
		}
		d.Decls = append(d.Decls, decl)
		if !p.eatPunct(",") {
			break
		}
	}
	p.expectSemi()
	return d
}

func (p *parser) funcDeclStmt() ast.Stmt {
	fn := p.funcLit(true)
	return &ast.FuncDecl{Fn: fn}
}

// funcLit parses a function keyword definition. requireName is true for
// declarations.
func (p *parser) funcLit(requireName bool) *ast.FuncLit {
	kw := p.expectKeyword("function")
	f := &ast.FuncLit{Loc: kw.Loc(p.file), RestIdx: -1}
	if p.eatPunct("*") {
		f.IsGenerator = true
	}
	if p.at(lexer.Ident) || (p.at(lexer.Keyword) && lexer.IsContextualKeyword(p.peek().Text)) {
		f.Name, _ = p.identName()
	} else if requireName {
		p.fail(p.peek().Loc(p.file), "function declaration requires a name")
	}
	p.parseParams(f)
	f.Body = p.blockStmt()
	return f
}

func (p *parser) parseParams(f *ast.FuncLit) {
	p.expectPunct("(")
	for !p.atPunct(")") {
		if p.eatPunct("...") {
			f.RestIdx = len(f.Params)
		}
		name, _ := p.identName()
		f.Params = append(f.Params, name)
		if f.RestIdx >= 0 && f.RestIdx == len(f.Params)-1 {
			break // rest parameter must be last
		}
		if !p.eatPunct(",") {
			break
		}
	}
	p.expectPunct(")")
}

func (p *parser) ifStmt() ast.Stmt {
	kw := p.expectKeyword("if")
	p.expectPunct("(")
	cond := p.expression()
	p.expectPunct(")")
	then := p.statement()
	var els ast.Stmt
	if p.eatKeyword("else") {
		els = p.statement()
	}
	return &ast.IfStmt{Cond: cond, Then: then, Else: els, Loc: kw.Loc(p.file)}
}

func (p *parser) whileStmt() ast.Stmt {
	kw := p.expectKeyword("while")
	p.expectPunct("(")
	cond := p.expression()
	p.expectPunct(")")
	return &ast.WhileStmt{Cond: cond, Body: p.statement(), Loc: kw.Loc(p.file)}
}

func (p *parser) doWhileStmt() ast.Stmt {
	kw := p.expectKeyword("do")
	body := p.statement()
	p.expectKeyword("while")
	p.expectPunct("(")
	cond := p.expression()
	p.expectPunct(")")
	p.expectSemi()
	return &ast.DoWhileStmt{Body: body, Cond: cond, Loc: kw.Loc(p.file)}
}

func (p *parser) forStmt() ast.Stmt {
	kw := p.expectKeyword("for")
	p.expectPunct("(")

	// for (var x in e) / for (var x of e) / for (x in e) / for (x of e)
	if st, ok := p.tryForIn(kw.Loc(p.file)); ok {
		return st
	}

	var init ast.Stmt
	if !p.atPunct(";") {
		if p.atKeyword("var") || p.atKeyword("let") || p.atKeyword("const") {
			kind := ast.VarKind(p.next().Text)
			d := &ast.VarDecl{Kind: kind, Loc: kw.Loc(p.file)}
			for {
				name, nloc := p.identName()
				decl := &ast.Declarator{Name: name, Loc: nloc}
				if p.eatPunct("=") {
					decl.Init = p.assignExpr()
				}
				d.Decls = append(d.Decls, decl)
				if !p.eatPunct(",") {
					break
				}
			}
			init = d
		} else {
			init = &ast.ExprStmt{X: p.expression()}
		}
	}
	p.expectPunct(";")
	var cond ast.Expr
	if !p.atPunct(";") {
		cond = p.expression()
	}
	p.expectPunct(";")
	var post ast.Expr
	if !p.atPunct(")") {
		post = p.expression()
	}
	p.expectPunct(")")
	return &ast.ForStmt{Init: init, Cond: cond, Post: post, Body: p.statement(), Loc: kw.Loc(p.file)}
}

// tryForIn recognizes for-in and for-of headers by lookahead from the token
// after "for (". It consumes nothing unless it matches.
func (p *parser) tryForIn(at loc.Loc) (ast.Stmt, bool) {
	save := p.pos
	var kind ast.VarKind
	if p.atKeyword("var") || p.atKeyword("let") || p.atKeyword("const") {
		kind = ast.VarKind(p.next().Text)
	}
	t := p.peek()
	isIdent := t.Kind == lexer.Ident || (t.Kind == lexer.Keyword && lexer.IsContextualKeyword(t.Text))
	if !isIdent {
		p.pos = save
		return nil, false
	}
	nxt := p.peekAt(1)
	isIn := nxt.Kind == lexer.Keyword && nxt.Text == "in"
	isOf := nxt.Kind == lexer.Keyword && nxt.Text == "of"
	if !isIn && !isOf {
		p.pos = save
		return nil, false
	}
	name, _ := p.identName()
	p.next() // in/of
	obj := p.expression()
	p.expectPunct(")")
	return &ast.ForInStmt{DeclKind: kind, Name: name, Obj: obj, Body: p.statement(), IsOf: isOf, Loc: at}, true
}

func (p *parser) returnStmt() ast.Stmt {
	kw := p.expectKeyword("return")
	st := &ast.ReturnStmt{Loc: kw.Loc(p.file)}
	t := p.peek()
	if !t.NewlineBefore && !p.atPunct(";") && !p.atPunct("}") && t.Kind != lexer.EOF {
		st.X = p.expression()
	}
	p.expectSemi()
	return st
}

func (p *parser) throwStmt() ast.Stmt {
	kw := p.expectKeyword("throw")
	if p.peek().NewlineBefore {
		p.fail(kw.Loc(p.file), "newline not allowed after throw")
	}
	x := p.expression()
	p.expectSemi()
	return &ast.ThrowStmt{X: x, Loc: kw.Loc(p.file)}
}

func (p *parser) tryStmt() ast.Stmt {
	kw := p.expectKeyword("try")
	st := &ast.TryStmt{Loc: kw.Loc(p.file), Block: p.blockStmt()}
	if p.eatKeyword("catch") {
		if p.eatPunct("(") {
			st.CatchParam, _ = p.identName()
			p.expectPunct(")")
		}
		st.Catch = p.blockStmt()
	}
	if p.eatKeyword("finally") {
		st.Finally = p.blockStmt()
	}
	if st.Catch == nil && st.Finally == nil {
		p.fail(kw.Loc(p.file), "try requires catch or finally")
	}
	return st
}

func (p *parser) switchStmt() ast.Stmt {
	kw := p.expectKeyword("switch")
	p.expectPunct("(")
	disc := p.expression()
	p.expectPunct(")")
	p.expectPunct("{")
	st := &ast.SwitchStmt{Disc: disc, Loc: kw.Loc(p.file)}
	sawDefault := false
	for !p.atPunct("}") && !p.at(lexer.EOF) {
		c := &ast.SwitchCase{Loc: p.peek().Loc(p.file)}
		if p.eatKeyword("default") {
			if sawDefault {
				p.fail(c.Loc, "duplicate default case")
			}
			sawDefault = true
		} else {
			p.expectKeyword("case")
			c.Test = p.expression()
		}
		p.expectPunct(":")
		for !p.atPunct("}") && !p.atKeyword("case") && !p.atKeyword("default") && !p.at(lexer.EOF) {
			c.Body = append(c.Body, p.statement())
		}
		st.Cases = append(st.Cases, c)
	}
	p.expectPunct("}")
	return st
}

// --------------------------------------------------------------- expressions

// expression parses a comma-separated expression sequence.
func (p *parser) expression() ast.Expr {
	first := p.assignExpr()
	if !p.atPunct(",") {
		return first
	}
	seq := &ast.SeqExpr{Exprs: []ast.Expr{first}, Loc: first.Pos()}
	for p.eatPunct(",") {
		seq.Exprs = append(seq.Exprs, p.assignExpr())
	}
	return seq
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true, ">>>=": true,
	"**=": true,
}

func (p *parser) assignExpr() ast.Expr {
	p.enter()
	defer p.leave()
	if p.atKeyword("yield") {
		return p.yieldExpr()
	}
	if arrow, ok := p.tryArrow(); ok {
		return arrow
	}
	lhs := p.condExpr()
	t := p.peek()
	if t.Kind == lexer.Punct && assignOps[t.Text] {
		switch lhs.(type) {
		case *ast.Ident, *ast.MemberExpr:
		default:
			p.fail(t.Loc(p.file), "invalid assignment target")
		}
		p.next()
		rhs := p.assignExpr()
		return &ast.AssignExpr{Op: t.Text, Target: lhs, Value: rhs, Loc: t.Loc(p.file)}
	}
	return lhs
}

// yieldExpr parses yield / yield E / yield* E. Like await, yield is
// accepted wherever an assignment expression may appear (a simplification:
// outside generator bodies it evaluates leniently instead of being a syntax
// error). A bare yield ends at a newline or at a token that cannot begin an
// expression.
func (p *parser) yieldExpr() ast.Expr {
	kw := p.expectKeyword("yield")
	y := &ast.YieldExpr{Loc: kw.Loc(p.file)}
	if p.eatPunct("*") {
		y.X = p.assignExpr()
		y.Delegate = true
		return y
	}
	t := p.peek()
	if t.NewlineBefore || t.Kind == lexer.EOF {
		return y
	}
	if t.Kind == lexer.Punct {
		switch t.Text {
		case ")", "]", "}", ",", ";", ":":
			return y
		}
	}
	y.X = p.assignExpr()
	return y
}

// tryArrow recognizes arrow functions by lookahead: IDENT "=>", or a
// parenthesized parameter list followed by "=>". It consumes nothing unless
// it matches.
func (p *parser) tryArrow() (ast.Expr, bool) {
	t := p.peek()
	// async arrow functions: "async x => …" or "async (…) => …".
	if t.Kind == lexer.Keyword && t.Text == "async" {
		n := p.peekAt(1)
		isArrowHead := (n.Kind == lexer.Ident && p.peekAt(2).Kind == lexer.Punct && p.peekAt(2).Text == "=>") ||
			(n.Kind == lexer.Punct && n.Text == "(")
		if isArrowHead && !n.NewlineBefore {
			save := p.pos
			p.next() // consume async
			if arrow, ok := p.tryArrow(); ok {
				arrow.(*ast.FuncLit).IsAsync = true
				return arrow, true
			}
			p.pos = save
		}
	}
	// ident => …
	if (t.Kind == lexer.Ident || (t.Kind == lexer.Keyword && lexer.IsContextualKeyword(t.Text))) &&
		p.peekAt(1).Kind == lexer.Punct && p.peekAt(1).Text == "=>" {
		name, nloc := p.identName()
		p.expectPunct("=>")
		f := &ast.FuncLit{IsArrow: true, Params: []string{name}, RestIdx: -1, Loc: nloc}
		p.arrowBody(f)
		return f, true
	}
	if !(t.Kind == lexer.Punct && t.Text == "(") {
		return nil, false
	}
	// Only a parenthesized list followed by '=>' is an arrow head.
	c := p.closeOf(p.pos)
	if c < 0 || c+1 >= len(p.toks) {
		return nil, false
	}
	if n := p.toks[c+1]; !(n.Kind == lexer.Punct && n.Text == "=>") {
		return nil, false
	}
	f := &ast.FuncLit{IsArrow: true, RestIdx: -1, Loc: t.Loc(p.file)}
	p.parseParams(f)
	p.expectPunct("=>")
	p.arrowBody(f)
	return f, true
}

// closeOf returns the index of the token closing the bracket at toks[i],
// or -1 if it never closes. Brackets of all three kinds pair by nesting
// depth alone. A scan records the match of every bracket it passes and
// jumps over brackets already matched, so the lookaheads of one parse
// examine each token at most once between them: nested parentheses cost
// linear, not quadratic, work.
func (p *parser) closeOf(i int) int {
	if p.closes == nil {
		p.closes = make([]int32, len(p.toks))
	}
	if c := p.closes[i]; c != 0 {
		return max(int(c)-1, -1)
	}
	var open []int
	for j := i; j < len(p.toks); j++ {
		if c := p.closes[j]; c != 0 && j > i {
			if c < 0 {
				break // an unclosed bracket inside leaves every outer one unclosed
			}
			j = int(c) - 1 // skip the matched pair; the loop steps past its close
			continue
		}
		p.scanned++
		tk := p.toks[j]
		if tk.Kind != lexer.Punct {
			continue
		}
		switch tk.Text {
		case "(", "[", "{":
			open = append(open, j)
		case ")", "]", "}":
			o := open[len(open)-1]
			open = open[:len(open)-1]
			p.closes[o] = int32(j) + 1
			if len(open) == 0 {
				return j
			}
		}
	}
	for _, o := range open {
		p.closes[o] = -1
	}
	return -1
}

func (p *parser) arrowBody(f *ast.FuncLit) {
	if p.atPunct("{") {
		f.Body = p.blockStmt()
		return
	}
	f.ExprBody = p.assignExpr()
}

func (p *parser) condExpr() ast.Expr {
	cond := p.binaryExpr(0)
	if !p.atPunct("?") {
		return cond
	}
	q := p.next()
	then := p.assignExpr()
	p.expectPunct(":")
	els := p.assignExpr()
	return &ast.CondExpr{Cond: cond, Then: then, Else: els, Loc: q.Loc(p.file)}
}

// binary operator precedence levels; higher binds tighter.
var binPrec = map[string]int{
	"??": 1,
	"||": 2,
	"&&": 3,
	"|":  4,
	"^":  5,
	"&":  6,
	"==": 7, "!=": 7, "===": 7, "!==": 7,
	"<": 8, ">": 8, "<=": 8, ">=": 8, "in": 8, "instanceof": 8,
	"<<": 9, ">>": 9, ">>>": 9,
	"+": 10, "-": 10,
	"*": 11, "/": 11, "%": 11,
	"**": 12,
}

func (p *parser) binaryExpr(minPrec int) ast.Expr {
	left := p.unaryExpr()
	for {
		t := p.peek()
		var op string
		switch {
		case t.Kind == lexer.Punct && binPrec[t.Text] > 0:
			op = t.Text
		case t.Kind == lexer.Keyword && (t.Text == "in" || t.Text == "instanceof"):
			op = t.Text
		default:
			return left
		}
		prec := binPrec[op]
		if prec <= minPrec {
			return left
		}
		p.next()
		// ** is right-associative; everything else left-associative.
		nextMin := prec
		if op == "**" {
			nextMin = prec - 1
		}
		right := p.binaryExpr(nextMin)
		if op == "&&" || op == "||" || op == "??" {
			left = &ast.LogicalExpr{Op: op, L: left, R: right, Loc: t.Loc(p.file)}
		} else {
			left = &ast.BinaryExpr{Op: op, L: left, R: right, Loc: t.Loc(p.file)}
		}
	}
}

func (p *parser) unaryExpr() ast.Expr {
	p.enter()
	defer p.leave()
	t := p.peek()
	if t.Kind == lexer.Punct {
		switch t.Text {
		case "!", "~", "+", "-":
			p.next()
			return &ast.UnaryExpr{Op: t.Text, X: p.unaryExpr(), Loc: t.Loc(p.file)}
		case "++", "--":
			p.next()
			x := p.unaryExpr()
			return &ast.UpdateExpr{Op: t.Text, X: x, Prefix: true, Loc: t.Loc(p.file)}
		}
	}
	if t.Kind == lexer.Keyword {
		switch t.Text {
		case "typeof", "void", "delete":
			p.next()
			return &ast.UnaryExpr{Op: t.Text, X: p.unaryExpr(), Loc: t.Loc(p.file)}
		case "await":
			// await is treated as a unary operator wherever it appears (a
			// simplification: top-level await is legal here too).
			p.next()
			return &ast.UnaryExpr{Op: "await", X: p.unaryExpr(), Loc: t.Loc(p.file)}
		}
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() ast.Expr {
	x := p.callExpr()
	t := p.peek()
	if t.Kind == lexer.Punct && (t.Text == "++" || t.Text == "--") && !t.NewlineBefore {
		p.next()
		return &ast.UpdateExpr{Op: t.Text, X: x, Prefix: false, Loc: t.Loc(p.file)}
	}
	return x
}

// callExpr parses member/call chains.
func (p *parser) callExpr() ast.Expr {
	var x ast.Expr
	if p.atKeyword("new") {
		x = p.newExpr()
	} else {
		x = p.primaryExpr()
	}
	return p.callTail(x)
}

func (p *parser) callTail(x ast.Expr) ast.Expr {
	for {
		t := p.peek()
		if t.Kind != lexer.Punct {
			return x
		}
		switch t.Text {
		case ".":
			p.next()
			name := p.propertyName()
			x = &ast.MemberExpr{Obj: x, Prop: name, Loc: t.Loc(p.file)}
		case "[":
			p.next()
			idx := p.expression()
			p.expectPunct("]")
			x = &ast.MemberExpr{Obj: x, PropExpr: idx, Computed: true, Loc: t.Loc(p.file)}
		case "(":
			args := p.arguments()
			x = &ast.CallExpr{Callee: x, Args: args, Loc: t.Loc(p.file)}
		default:
			return x
		}
	}
}

// propertyName consumes a property name after '.', allowing any keyword
// (obj.delete, obj.in are legal in modern JS).
func (p *parser) propertyName() string {
	t := p.peek()
	if t.Kind == lexer.Ident || t.Kind == lexer.Keyword {
		p.next()
		return t.Text
	}
	p.fail(t.Loc(p.file), "expected property name but found %s", t)
	return ""
}

func (p *parser) arguments() []ast.Expr {
	p.expectPunct("(")
	var args []ast.Expr
	for !p.atPunct(")") {
		if p.atPunct("...") {
			s := p.next()
			args = append(args, &ast.SpreadExpr{X: p.assignExpr(), Loc: s.Loc(p.file)})
		} else {
			args = append(args, p.assignExpr())
		}
		if !p.eatPunct(",") {
			break
		}
	}
	p.expectPunct(")")
	return args
}

func (p *parser) newExpr() ast.Expr {
	p.enter()
	defer p.leave()
	kw := p.expectKeyword("new")
	// Parse the constructor as a member chain without call expressions so
	// that `new a.b.C(x)` binds the arguments to the new-expression.
	var callee ast.Expr
	if p.atKeyword("new") {
		callee = p.newExpr()
	} else {
		callee = p.primaryExpr()
	}
	for {
		t := p.peek()
		if t.Kind != lexer.Punct {
			break
		}
		if t.Text == "." {
			p.next()
			callee = &ast.MemberExpr{Obj: callee, Prop: p.propertyName(), Loc: t.Loc(p.file)}
		} else if t.Text == "[" {
			p.next()
			idx := p.expression()
			p.expectPunct("]")
			callee = &ast.MemberExpr{Obj: callee, PropExpr: idx, Computed: true, Loc: t.Loc(p.file)}
		} else {
			break
		}
	}
	var args []ast.Expr
	if p.atPunct("(") {
		args = p.arguments()
	}
	return &ast.NewExpr{Callee: callee, Args: args, Loc: kw.Loc(p.file)}
}

func (p *parser) primaryExpr() ast.Expr {
	t := p.peek()
	switch t.Kind {
	case lexer.Number:
		p.next()
		return &ast.NumberLit{Value: t.Num, Raw: t.Text, Loc: t.Loc(p.file)}
	case lexer.String:
		p.next()
		return &ast.StringLit{Value: t.Text, Loc: t.Loc(p.file)}
	case lexer.Template:
		p.next()
		return p.templateLit(t)
	case lexer.Regex:
		p.next()
		pattern, flags := t.Regex()
		return &ast.RegexLit{Pattern: pattern, Flags: flags, Loc: t.Loc(p.file)}
	case lexer.Ident:
		p.next()
		return &ast.Ident{Name: t.Text, Loc: t.Loc(p.file)}
	case lexer.Keyword:
		switch t.Text {
		case "this":
			p.next()
			return &ast.ThisExpr{Loc: t.Loc(p.file)}
		case "true", "false":
			p.next()
			return &ast.BoolLit{Value: t.Text == "true", Loc: t.Loc(p.file)}
		case "null":
			p.next()
			return &ast.NullLit{Loc: t.Loc(p.file)}
		case "undefined":
			p.next()
			return &ast.UndefinedLit{Loc: t.Loc(p.file)}
		case "function":
			return p.funcLit(false)
		case "class":
			expr, _ := p.classExpr()
			return expr
		case "async":
			if n := p.peekAt(1); n.Kind == lexer.Keyword && n.Text == "function" && !n.NewlineBefore {
				p.next()
				fn := p.funcLit(false)
				fn.IsAsync = true
				return fn
			}
			// Plain identifier use of the contextual keyword.
			p.next()
			return &ast.Ident{Name: t.Text, Loc: t.Loc(p.file)}
		default:
			if lexer.IsContextualKeyword(t.Text) {
				p.next()
				return &ast.Ident{Name: t.Text, Loc: t.Loc(p.file)}
			}
		}
	case lexer.Punct:
		switch t.Text {
		case "(":
			p.next()
			x := p.expression()
			p.expectPunct(")")
			return x
		case "[":
			return p.arrayLit()
		case "{":
			return p.objectLit()
		}
	}
	p.fail(t.Loc(p.file), "unexpected token %s", t)
	return nil
}

func (p *parser) arrayLit() ast.Expr {
	open := p.expectPunct("[")
	lit := &ast.ArrayLit{Loc: open.Loc(p.file)}
	for !p.atPunct("]") {
		if p.atPunct(",") {
			p.next()
			lit.Elems = append(lit.Elems, nil) // hole
			continue
		}
		if p.atPunct("...") {
			s := p.next()
			lit.Elems = append(lit.Elems, &ast.SpreadExpr{X: p.assignExpr(), Loc: s.Loc(p.file)})
		} else {
			lit.Elems = append(lit.Elems, p.assignExpr())
		}
		if !p.eatPunct(",") {
			break
		}
	}
	p.expectPunct("]")
	return lit
}

func (p *parser) objectLit() ast.Expr {
	open := p.expectPunct("{")
	lit := &ast.ObjectLit{Loc: open.Loc(p.file)}
	for !p.atPunct("}") {
		lit.Props = append(lit.Props, p.objectProp())
		if !p.eatPunct(",") {
			break
		}
	}
	p.expectPunct("}")
	return lit
}

func (p *parser) objectProp() *ast.Property {
	t := p.peek()
	prop := &ast.Property{Loc: t.Loc(p.file)}

	// get/set accessor: "get" or "set" followed by a key (not ':'/'('/',').
	if t.Kind == lexer.Keyword && (t.Text == "get" || t.Text == "set") {
		n := p.peekAt(1)
		isAccessor := n.Kind == lexer.Ident || n.Kind == lexer.String ||
			n.Kind == lexer.Number || (n.Kind == lexer.Punct && n.Text == "[") ||
			(n.Kind == lexer.Keyword && n.Text != "in" && n.Text != "instanceof")
		if isAccessor {
			p.next()
			if t.Text == "get" {
				prop.Kind = ast.GetterProp
			} else {
				prop.Kind = ast.SetterProp
			}
			p.propKey(prop)
			f := &ast.FuncLit{Loc: p.peek().Loc(p.file), RestIdx: -1}
			p.parseParams(f)
			f.Body = p.blockStmt()
			prop.Value = f
			return prop
		}
	}

	key := p.peek()
	p.propKey(prop)

	switch {
	case p.atPunct(":"):
		p.next()
		prop.Value = p.assignExpr()
	case p.atPunct("("):
		// method shorthand: key(params) { body }
		f := &ast.FuncLit{Name: prop.Key, Loc: prop.Loc, RestIdx: -1}
		p.parseParams(f)
		f.Body = p.blockStmt()
		prop.Value = f
	default:
		// shorthand { key }: the key must be an identifier.
		if key.Kind != lexer.Ident && !(key.Kind == lexer.Keyword && lexer.IsContextualKeyword(key.Text)) {
			p.fail(prop.Loc, "property key %s requires a value", key)
		}
		prop.Value = &ast.Ident{Name: prop.Key, Loc: prop.Loc}
	}
	return prop
}

func (p *parser) propKey(prop *ast.Property) {
	t := p.peek()
	switch {
	case t.Kind == lexer.Ident || t.Kind == lexer.Keyword:
		p.next()
		prop.Key = t.Text
	case t.Kind == lexer.String:
		p.next()
		prop.Key = t.Text
	case t.Kind == lexer.Number:
		p.next()
		prop.Key = trimFloat(t.Num)
	case t.Kind == lexer.Punct && t.Text == "[":
		p.next()
		prop.Computed = p.assignExpr()
		p.expectPunct("]")
	default:
		p.fail(t.Loc(p.file), "expected property key but found %s", t)
	}
}

// templateLit splits a raw template body into quasis and interpolated
// expressions and sub-parses the expressions with location-corrected
// lexers so allocation sites inside interpolations remain meaningful.
func (p *parser) templateLit(t lexer.Token) ast.Expr {
	lit := &ast.TemplateLit{Loc: t.Loc(p.file)}
	raw := t.Text
	// Content begins one column after the backtick.
	line, col := int(t.Line), int(t.Col)+1
	var quasi strings.Builder
	i := 0
	bump := func(c byte) {
		if c == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	for i < len(raw) {
		c := raw[i]
		if c == '\\' && i+1 < len(raw) {
			switch raw[i+1] {
			case 'n':
				quasi.WriteByte('\n')
			case 't':
				quasi.WriteByte('\t')
			case 'r':
				quasi.WriteByte('\r')
			case '`':
				quasi.WriteByte('`')
			case '$':
				quasi.WriteByte('$')
			case '\\':
				quasi.WriteByte('\\')
			default:
				quasi.WriteByte(raw[i+1])
			}
			bump(raw[i])
			bump(raw[i+1])
			i += 2
			continue
		}
		if c == '$' && i+1 < len(raw) && raw[i+1] == '{' {
			lit.Quasis = append(lit.Quasis, quasi.String())
			quasi.Reset()
			bump('$')
			bump('{')
			i += 2
			// find matching close brace
			depth := 1
			start := i
			startLine, startCol := line, col
			for i < len(raw) && depth > 0 {
				switch raw[i] {
				case '{':
					depth++
				case '}':
					depth--
					if depth == 0 {
						goto closed
					}
				}
				bump(raw[i])
				i++
			}
			p.fail(t.Loc(p.file), "unterminated template interpolation")
		closed:
			sub := raw[start:i]
			expr, err := parseExpr(lexer.NewAt(p.file, sub, startLine, startCol), p.file, p.depth)
			if err != nil {
				panic(bailout{&Error{t.Loc(p.file), "in template interpolation: " + err.Error()}})
			}
			lit.Exprs = append(lit.Exprs, expr)
			bump('}')
			i++
			continue
		}
		quasi.WriteByte(c)
		bump(c)
		i++
	}
	lit.Quasis = append(lit.Quasis, quasi.String())
	return lit
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}
