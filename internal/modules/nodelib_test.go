package modules

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/value"
)

// runModule loads the given entry source as /app/index.js and returns its
// exports.
func runModule(t *testing.T, src string) value.Value {
	t.Helper()
	p := &Project{Files: map[string]string{"/app/index.js": src}}
	it := interp.New(interp.Options{})
	r := NewRegistry(p, it)
	v, err := r.Load("/app/index.js")
	if err != nil {
		t.Fatalf("load: %v\nsource:\n%s", err, src)
	}
	return v
}

func field(t *testing.T, v value.Value, key string) value.Value {
	t.Helper()
	o, ok := v.(*value.Object)
	if !ok {
		t.Fatalf("exports is %T, not an object", v)
	}
	p := o.GetOwn(key)
	if p == nil {
		t.Fatalf("missing export %q", key)
	}
	return p.Value
}

func wantEq(t *testing.T, got, want value.Value, what string) {
	t.Helper()
	if !value.StrictEquals(got, want) {
		t.Errorf("%s = %v, want %v", what, value.ToString(got), value.ToString(want))
	}
}

func TestQuerystringModule(t *testing.T) {
	v := runModule(t, `
var qs = require('querystring');
var parsed = qs.parse("a=1&b=two&empty");
exports.a = parsed.a;
exports.b = parsed.b;
exports.empty = parsed.empty;
exports.str = qs.stringify({x: 1, y: "z"});
exports.none = qs.parse("").a;
`)
	wantEq(t, field(t, v, "a"), value.String("1"), "a")
	wantEq(t, field(t, v, "b"), value.String("two"), "b")
	wantEq(t, field(t, v, "empty"), value.String(""), "empty")
	wantEq(t, field(t, v, "str"), value.String("x=1&y=z"), "stringify")
}

func TestURLModule(t *testing.T) {
	v := runModule(t, `
var url = require('url');
var u = url.parse("http://example.com/path/to?x=1");
exports.host = u.host;
exports.pathname = u.pathname;
exports.query = u.query;
exports.protocol = u.protocol;
exports.rt = url.format(u);
`)
	wantEq(t, field(t, v, "host"), value.String("example.com"), "host")
	wantEq(t, field(t, v, "pathname"), value.String("/path/to"), "pathname")
	wantEq(t, field(t, v, "query"), value.String("x=1"), "query")
	wantEq(t, field(t, v, "protocol"), value.String("http:"), "protocol")
}

func TestBufferModule(t *testing.T) {
	v := runModule(t, `
var Buffer = require('buffer').Buffer;
var b = Buffer.from("hello");
exports.len = b.length;
exports.str = b.toString();
exports.isBuf = Buffer.isBuffer(b);
exports.notBuf = Buffer.isBuffer("x");
exports.cat = Buffer.concat([Buffer.from("ab"), Buffer.from("cd")]).toString();
exports.sliced = b.slice(1, 3).toString();
`)
	wantEq(t, field(t, v, "len"), value.Number(5), "len")
	wantEq(t, field(t, v, "str"), value.String("hello"), "str")
	wantEq(t, field(t, v, "isBuf"), value.Bool(true), "isBuf")
	wantEq(t, field(t, v, "notBuf"), value.Bool(false), "notBuf")
	wantEq(t, field(t, v, "cat"), value.String("abcd"), "concat")
	wantEq(t, field(t, v, "sliced"), value.String("el"), "slice")
}

func TestStreamModule(t *testing.T) {
	v := runModule(t, `
var Stream = require('stream');
var src = new Stream.Readable();
var dst = new Stream.Writable();
var seen = [];
dst.on('data', function(chunk) { seen.push(chunk); });
src.pipe(dst);
src.emit('data', 'chunk1');
src.emit('data', 'chunk2');
src.emit('end');
exports.count = seen.length;
exports.first = seen[0];
`)
	wantEq(t, field(t, v, "count"), value.Number(2), "piped chunks")
	wantEq(t, field(t, v, "first"), value.String("chunk1"), "first chunk")
}

func TestHTTPModuleShape(t *testing.T) {
	v := runModule(t, `
var http = require('http');
var handled = 0;
var server = http.createServer(function onReq(req, res) {
  handled++;
  res.writeHead(200, {});
  res.end("ok");
});
var listening = false;
server.listen(8080, function() { listening = true; });
// Drive a fake request through the emitter, as tests do.
var Req = http.IncomingMessage;
var Res = http.ServerResponse;
server.emit('request', new Req(), new Res());
exports.handled = handled;
exports.listening = listening;
exports.methods = http.METHODS.length;
`)
	wantEq(t, field(t, v, "handled"), value.Number(1), "handled")
	wantEq(t, field(t, v, "listening"), value.Bool(true), "listening")
	wantEq(t, field(t, v, "methods"), value.Number(7), "METHODS")
}

func TestAssertModule(t *testing.T) {
	v := runModule(t, `
var assert = require('assert');
var failures = 0;
function check(fn) {
  try { fn(); } catch (e) { failures++; }
}
check(function() { assert.ok(true); });
check(function() { assert.ok(false); });
check(function() { assert.equal(1, "1"); });
check(function() { assert.strictEqual(1, "1"); });
check(function() { assert.deepEqual({a: [1]}, {a: [1]}); });
check(function() { assert.throws(function() { throw new Error("x"); }); });
check(function() { assert.throws(function() {}); });
exports.failures = failures;
`)
	wantEq(t, field(t, v, "failures"), value.Number(3), "assert failures")
}

func TestCryptoAndOSModules(t *testing.T) {
	v := runModule(t, `
var crypto = require('crypto');
var os = require('os');
var h1 = crypto.createHash('sha1').update("abc").digest('hex');
var h2 = crypto.createHash('sha1').update("abc").digest('hex');
var h3 = crypto.createHash('sha1').update("abd").digest('hex');
exports.stable = h1 === h2;
exports.differs = h1 !== h3;
exports.bytes = crypto.randomBytes(4).length;
exports.platform = os.platform();
exports.eol = os.EOL;
`)
	wantEq(t, field(t, v, "stable"), value.Bool(true), "hash stability")
	wantEq(t, field(t, v, "differs"), value.Bool(true), "hash difference")
	wantEq(t, field(t, v, "bytes"), value.Number(4), "randomBytes length")
	wantEq(t, field(t, v, "platform"), value.String("linux"), "platform")
}

func TestChildProcessMock(t *testing.T) {
	v := runModule(t, `
var cp = require('child_process');
var called = false;
cp.exec("ls", function(err, stdout, stderr) { called = true; });
var p = cp.spawn("cmd", []);
exports.called = called;
exports.hasStdout = typeof p.stdout === "object";
`)
	wantEq(t, field(t, v, "called"), value.Bool(true), "exec callback")
	wantEq(t, field(t, v, "hasStdout"), value.Bool(true), "spawn stdout")
}

func TestNodeLibSourcesAllParse(t *testing.T) {
	// Every built-in module source must parse and load standalone.
	for path := range nodeLibSources {
		p := &Project{Files: map[string]string{
			"/app/index.js": "module.exports = require('" + path + "');",
		}}
		it := interp.New(interp.Options{})
		r := NewRegistry(p, it)
		if _, err := r.Load("/app/index.js"); err != nil {
			t.Errorf("%s failed to load: %v", path, err)
		}
	}
}
