// Package lexer implements a tokenizer for the JavaScript subset accepted
// by this project's front end.
//
// The lexer is newline-aware (each token records whether a line terminator
// preceded it) so the parser can implement automatic semicolon insertion,
// and it disambiguates regular-expression literals from division operators
// using the kind of the previous significant token.
//
// A token carries its line and column but not its file: the file belongs to
// the lexer, and Token.Loc rebuilds a full location from it. Tokens are
// small values that never escape to the heap, so lexing a file allocates its
// token slice and, for strings with escapes, their cooked values.
package lexer

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/loc"
)

// Kind classifies a token.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Keyword
	Number
	String   // quoted string literal; cooked value in Token.Text
	Template // template literal; raw contents (between backticks) in Token.Text
	Regex    // regular expression literal; source /pattern/flags in Token.Text, split by Token.Regex
	Punct
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "identifier"
	case Keyword:
		return "keyword"
	case Number:
		return "number"
	case String:
		return "string"
	case Template:
		return "template"
	case Regex:
		return "regex"
	case Punct:
		return "punctuator"
	}
	return "unknown"
}

// Token is a single lexical token. It is 40 bytes: the parser holds a
// file's tokens in one slice and backtracks by index into it.
type Token struct {
	// Text is the punctuator, identifier or keyword, the source text of a
	// number or regex, the cooked value of a string, or the raw contents of
	// a template.
	Text string
	Num  float64 // numeric value for Number tokens
	// Line and Col are the 1-based position of the token's first byte.
	Line, Col int32
	Kind      Kind
	// NewlineBefore reports whether a line terminator appeared between the
	// previous token and this one; it drives automatic semicolon insertion.
	NewlineBefore bool
}

// Loc returns the token's location in file, the file its lexer was given.
func (t Token) Loc(file string) loc.Loc {
	return loc.Loc{File: file, Line: int(t.Line), Col: int(t.Col)}
}

// Regex splits a Regex token's text into its pattern and flags.
func (t Token) Regex() (pattern, flags string) {
	end := strings.LastIndexByte(t.Text, '/')
	return t.Text[1:end], t.Text[end+1:]
}

func (t Token) String() string {
	if t.Kind == EOF {
		return "EOF"
	}
	return fmt.Sprintf("%s %q", t.Kind, t.Text)
}

var keywords = map[string]bool{
	"break": true, "case": true, "catch": true, "class": true, "const": true,
	"continue": true, "default": true, "delete": true, "do": true, "else": true,
	"extends": true, "false": true, "finally": true, "for": true, "function": true,
	"if": true, "in": true, "instanceof": true, "let": true, "new": true,
	"null": true, "of": true, "return": true, "static": true, "switch": true,
	"this": true, "throw": true, "true": true, "try": true, "typeof": true,
	"undefined": true, "var": true, "void": true, "while": true, "get": true,
	"set": true, "async": true, "await": true, "yield": true,
}

// Identifier-like keywords that are allowed as identifiers in most positions
// (contextual keywords). The parser treats them as identifiers unless the
// grammar position demands the keyword reading.
var contextual = map[string]bool{
	"of": true, "get": true, "set": true, "static": true, "let": true,
	"undefined": true, "async": true,
}

// Error describes a lexical error at a specific source location.
type Error struct {
	Loc loc.Loc
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Loc, e.Msg) }

// Lexer tokenizes a single source file.
type Lexer struct {
	file    string
	src     string
	pos     int
	line    int
	lineOff int // byte offset of start of current line

	prev Token // previous significant token (for regex disambiguation)
	nl   bool  // newline seen since previous token
}

// New returns a lexer for source text src attributed to the given file path.
func New(file, src string) *Lexer { return NewAt(file, src, 1, 1) }

// NewAt returns a lexer for src as it appears at line:col of file, such as
// the body of a template interpolation: locations count from line:col, and
// the first token has NewlineBefore set when line > 1, as if src were
// preceded by the rest of the file.
func NewAt(file, src string, line, col int) *Lexer {
	return &Lexer{file: file, src: src, line: line, lineOff: -(col - 1), nl: line > 1}
}

// IsKeyword reports whether name is a reserved word.
func IsKeyword(name string) bool { return keywords[name] }

// IsContextualKeyword reports whether name is a keyword usable as an
// identifier in non-keyword positions.
func IsContextualKeyword(name string) bool { return contextual[name] }

func (lx *Lexer) here() loc.Loc {
	return loc.Loc{File: lx.file, Line: lx.line, Col: lx.pos - lx.lineOff + 1}
}

func (lx *Lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.lineOff = lx.pos
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// skipSpace consumes whitespace and comments, recording whether any line
// terminators were crossed.
func (lx *Lexer) skipSpace() error {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '\n':
			lx.nl = true
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.pos++
			}
		case c == '/' && lx.peekAt(1) == '*':
			start := lx.here()
			lx.pos += 2
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peekByte() == '*' && lx.peekAt(1) == '/' {
					lx.pos += 2
					closed = true
					break
				}
				if lx.peekByte() == '\n' {
					lx.nl = true
				}
				lx.advance()
			}
			if !closed {
				return &Error{start, "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

// regexAllowed reports whether a '/' at the current position begins a regex
// literal rather than a division operator, based on the previous token.
func (lx *Lexer) regexAllowed() bool {
	switch lx.prev.Kind {
	case Ident, Number, String, Template, Regex:
		return false
	case Keyword:
		switch lx.prev.Text {
		case "this", "true", "false", "null", "undefined":
			return false
		}
		return true
	case Punct:
		switch lx.prev.Text {
		case ")", "]", "}", "++", "--":
			return false
		}
		return true
	}
	return true // start of input
}

// Next returns the next token. At end of input it returns an EOF token; it
// is safe to keep calling Next after EOF.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpace(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: int32(lx.line), Col: int32(lx.pos - lx.lineOff + 1), NewlineBefore: lx.nl}
	lx.nl = false
	if lx.pos >= len(lx.src) {
		tok.Kind = EOF
		lx.prev = tok
		return tok, nil
	}
	c := lx.peekByte()
	var err error
	switch {
	case isIdentStart(c):
		lx.lexIdent(&tok)
	case isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))):
		err = lx.lexNumber(&tok)
	case c == '"' || c == '\'':
		err = lx.lexString(&tok)
	case c == '`':
		err = lx.lexTemplate(&tok)
	case c == '/' && lx.regexAllowed():
		err = lx.lexRegex(&tok)
	default:
		err = lx.lexPunct(&tok)
	}
	if err != nil {
		return Token{}, err
	}
	lx.prev = tok
	return tok, nil
}

// errorAt returns a lexical error at tok's position.
func (lx *Lexer) errorAt(tok *Token, msg string) error {
	return &Error{tok.Loc(lx.file), msg}
}

// All tokenizes the entire input, returning the token slice including the
// final EOF token.
func (lx *Lexer) All() ([]Token, error) {
	// Pre-size for a dense token stream, one token per 2.5 bytes of source,
	// so a file fills one slice without regrowing it. Corpus files run from
	// 2.5 to 5.1 bytes per token, with a median of 3.7; the total is below
	// what one regrowth of a tighter estimate would cost.
	toks := make([]Token, 0, len(lx.src)*2/5+16)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) lexIdent(tok *Token) {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
		lx.pos++
	}
	tok.Text = lx.src[start:lx.pos]
	if keywords[tok.Text] {
		tok.Kind = Keyword
	} else {
		tok.Kind = Ident
	}
}

// lexNumber reads a decimal or hex literal the way JavaScript does: a value
// too large for a float64 is Infinity, and a hex literal rounds to the
// nearest float64 however many digits it has.
func (lx *Lexer) lexNumber(tok *Token) error {
	start := lx.pos
	tok.Kind = Number
	if lx.peekByte() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.pos += 2
		for lx.pos < len(lx.src) && isHexDigit(lx.peekByte()) {
			lx.pos++
		}
		tok.Text = lx.src[start:lx.pos]
		// A binary exponent makes the text a hex float, which ParseFloat
		// rounds correctly.
		v, err := strconv.ParseFloat(tok.Text+"p0", 64)
		if err != nil && !errors.Is(err, strconv.ErrRange) {
			return lx.errorAt(tok, "invalid hex literal "+tok.Text)
		}
		tok.Num = v
		return nil
	}
	for lx.pos < len(lx.src) && isDigit(lx.peekByte()) {
		lx.pos++
	}
	if lx.peekByte() == '.' {
		lx.pos++
		for lx.pos < len(lx.src) && isDigit(lx.peekByte()) {
			lx.pos++
		}
	}
	if c := lx.peekByte(); c == 'e' || c == 'E' {
		save := lx.pos
		lx.pos++
		if c := lx.peekByte(); c == '+' || c == '-' {
			lx.pos++
		}
		if !isDigit(lx.peekByte()) {
			lx.pos = save
		} else {
			for lx.pos < len(lx.src) && isDigit(lx.peekByte()) {
				lx.pos++
			}
		}
	}
	tok.Text = lx.src[start:lx.pos]
	// Out of range, ParseFloat returns ±Inf or 0, JavaScript's values too.
	v, err := strconv.ParseFloat(tok.Text, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return lx.errorAt(tok, "invalid number literal "+tok.Text)
	}
	tok.Num = v
	return nil
}

// lexString reads a quoted string. One without escapes is a slice of the
// source; only an escaped string builds its cooked value.
func (lx *Lexer) lexString(tok *Token) error {
	tok.Kind = String
	quote := lx.advance()
	start := lx.pos
	for lx.pos < len(lx.src) {
		switch lx.src[lx.pos] {
		case quote:
			tok.Text = lx.src[start:lx.pos]
			lx.pos++
			return nil
		case '\\':
			return lx.lexEscapedString(tok, quote, start)
		case '\n':
			return lx.errorAt(tok, "newline in string literal")
		}
		lx.pos++
	}
	return lx.errorAt(tok, "unterminated string literal")
}

// lexEscapedString finishes a string whose escape-free prefix runs from
// start to the current position, which holds a backslash.
func (lx *Lexer) lexEscapedString(tok *Token, quote byte, start int) error {
	var sb strings.Builder
	sb.WriteString(lx.src[start:lx.pos])
	for {
		if lx.pos >= len(lx.src) {
			return lx.errorAt(tok, "unterminated string literal")
		}
		c := lx.advance()
		if c == quote {
			break
		}
		if c == '\n' {
			return lx.errorAt(tok, "newline in string literal")
		}
		if c != '\\' {
			sb.WriteByte(c)
			continue
		}
		if lx.pos >= len(lx.src) {
			return lx.errorAt(tok, "unterminated string literal")
		}
		e := lx.advance()
		switch e {
		case 'n':
			sb.WriteByte('\n')
		case 't':
			sb.WriteByte('\t')
		case 'r':
			sb.WriteByte('\r')
		case 'b':
			sb.WriteByte('\b')
		case 'f':
			sb.WriteByte('\f')
		case 'v':
			sb.WriteByte('\v')
		case '0':
			sb.WriteByte(0)
		case 'x':
			v, ok := lx.hexEscape(2)
			if !ok {
				return lx.errorAt(tok, "invalid \\x escape")
			}
			sb.WriteRune(v)
		case 'u':
			v, ok := lx.hexEscape(4)
			if !ok {
				return lx.errorAt(tok, "invalid \\u escape")
			}
			sb.WriteRune(v)
		case '\n':
			// line continuation: contributes nothing
		default:
			sb.WriteByte(e)
		}
	}
	tok.Text = sb.String()
	return nil
}

// hexEscape consumes exactly n hex digits and returns their value, or
// reports false and consumes nothing when the next n bytes are not all hex
// digits.
func (lx *Lexer) hexEscape(n int) (rune, bool) {
	if lx.pos+n > len(lx.src) {
		return 0, false
	}
	v, err := strconv.ParseUint(lx.src[lx.pos:lx.pos+n], 16, 32)
	if err != nil {
		return 0, false
	}
	lx.pos += n
	return rune(v), true
}

// lexTemplate captures the raw contents of a template literal, tracking
// ${…} nesting so embedded braces and strings do not terminate the scan
// early. The parser re-lexes the interpolated fragments.
func (lx *Lexer) lexTemplate(tok *Token) error {
	lx.advance() // consume `
	start := lx.pos
	depth := 0
	for {
		if lx.pos >= len(lx.src) {
			return lx.errorAt(tok, "unterminated template literal")
		}
		c := lx.peekByte()
		if c == '\\' {
			lx.advance()
			if lx.pos < len(lx.src) {
				lx.advance()
			}
			continue
		}
		if depth == 0 && c == '`' {
			break
		}
		if c == '$' && lx.peekAt(1) == '{' {
			depth++
			lx.advance()
			lx.advance()
			continue
		}
		if depth > 0 {
			if c == '{' {
				depth++
			} else if c == '}' {
				depth--
			}
		}
		lx.advance()
	}
	tok.Kind = Template
	tok.Text = lx.src[start:lx.pos]
	lx.advance() // closing `
	return nil
}

func (lx *Lexer) lexRegex(tok *Token) error {
	start := lx.pos
	lx.advance() // consume /
	inClass := false
	for {
		if lx.pos >= len(lx.src) {
			return lx.errorAt(tok, "unterminated regular expression")
		}
		c := lx.peekByte()
		if c == '\n' {
			return lx.errorAt(tok, "unterminated regular expression")
		}
		if c == '\\' {
			lx.advance()
			if lx.pos < len(lx.src) {
				lx.advance()
			}
			continue
		}
		if c == '[' {
			inClass = true
		} else if c == ']' {
			inClass = false
		} else if c == '/' && !inClass {
			break
		}
		lx.advance()
	}
	lx.advance() // closing /
	for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
		lx.pos++
	}
	tok.Kind = Regex
	tok.Text = lx.src[start:lx.pos]
	return nil
}

// puncts, longest first within each leading byte, matched greedily.
var puncts = []string{
	">>>=", "...", "===", "!==", "**=", ">>>", "<<=", ">>=",
	"=>", "==", "!=", "<=", ">=", "&&", "||", "??", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "**",
	"{", "}", "(", ")", "[", "]", ";", ",", ".", "<", ">", "+", "-", "*",
	"/", "%", "&", "|", "^", "!", "~", "?", ":", "=",
}

// punctsByByte lists, for each leading byte, the puncts starting with it in
// puncts order, so the first that matches is still the longest.
var punctsByByte [256][]string

func init() {
	for _, p := range puncts {
		punctsByByte[p[0]] = append(punctsByByte[p[0]], p)
	}
}

func (lx *Lexer) lexPunct(tok *Token) error {
	rest := lx.src[lx.pos:]
	for _, p := range punctsByByte[rest[0]] {
		if strings.HasPrefix(rest, p) {
			tok.Kind = Punct
			tok.Text = p
			lx.pos += len(p) // no punctuator holds a newline
			return nil
		}
	}
	return lx.errorAt(tok, fmt.Sprintf("unexpected character %q", rest[0]))
}
