package modules

// nodeLibSources holds the JavaScript implementations of the Node.js
// built-in modules this runtime supports. Pure modules (events, util, path,
// assert, querystring) are real JS so their functions take part in analysis
// exactly like dependency code — e.g. EventEmitter.prototype methods show
// up as function definitions with locations, as in the paper's motivating
// example. External modules (fs, net, http, …) are minimal stubs in
// concrete mode and are replaced by sandbox mocks during approximate
// interpretation.
var nodeLibSources = map[string]string{
	"node:events": `
function EventEmitter() {
  this._events = {};
}
EventEmitter.prototype.on = function(type, listener) {
  if (!this._events) this._events = {};
  if (!this._events[type]) this._events[type] = [];
  this._events[type].push(listener);
  return this;
};
EventEmitter.prototype.addListener = function(type, listener) {
  return this.on(type, listener);
};
EventEmitter.prototype.once = function(type, listener) {
  var fired = false;
  var self = this;
  function wrapper() {
    if (!fired) {
      fired = true;
      self.removeListener(type, wrapper);
      listener.apply(self, arguments);
    }
  }
  wrapper.listener = listener;
  return this.on(type, wrapper);
};
EventEmitter.prototype.removeListener = function(type, listener) {
  if (!this._events || !this._events[type]) return this;
  var list = this._events[type];
  var kept = [];
  for (var i = 0; i < list.length; i++) {
    if (list[i] !== listener && list[i].listener !== listener) kept.push(list[i]);
  }
  this._events[type] = kept;
  return this;
};
EventEmitter.prototype.removeAllListeners = function(type) {
  if (!this._events) return this;
  if (type === undefined) {
    this._events = {};
  } else {
    this._events[type] = [];
  }
  return this;
};
EventEmitter.prototype.emit = function(type) {
  if (!this._events || !this._events[type]) return false;
  var list = this._events[type].slice();
  var args = [];
  for (var i = 1; i < arguments.length; i++) args.push(arguments[i]);
  for (var j = 0; j < list.length; j++) {
    list[j].apply(this, args);
  }
  return list.length > 0;
};
EventEmitter.prototype.listeners = function(type) {
  if (!this._events || !this._events[type]) return [];
  return this._events[type].slice();
};
EventEmitter.prototype.listenerCount = function(type) {
  return this.listeners(type).length;
};
module.exports = EventEmitter;
module.exports.EventEmitter = EventEmitter;
`,

	"node:util": `
exports.inherits = function(ctor, superCtor) {
  ctor.super_ = superCtor;
  ctor.prototype = Object.create(superCtor.prototype, {
    constructor: { value: ctor, enumerable: false, writable: true }
  });
};
exports.format = function(f) {
  var args = arguments;
  var i = 1;
  if (typeof f !== 'string') {
    var parts = [];
    for (var j = 0; j < args.length; j++) parts.push(String(args[j]));
    return parts.join(' ');
  }
  var out = '';
  var k = 0;
  while (k < f.length) {
    var c = f.charAt(k);
    if (c === '%' && k + 1 < f.length) {
      var d = f.charAt(k + 1);
      if (d === 's' || d === 'd' || d === 'j' || d === 'i') {
        out = out + String(args[i]);
        i = i + 1;
        k = k + 2;
        continue;
      }
    }
    out = out + c;
    k = k + 1;
  }
  return out;
};
exports.isArray = function(v) { return Array.isArray(v); };
exports.isFunction = function(v) { return typeof v === 'function'; };
exports.isString = function(v) { return typeof v === 'string'; };
exports.isObject = function(v) { return v !== null && typeof v === 'object'; };
exports.isUndefined = function(v) { return v === undefined; };
exports.deprecate = function(fn, msg) { return fn; };
exports.promisify = function(fn) { return fn; };
`,

	"node:path": `
function normalizeParts(parts) {
  var out = [];
  for (var i = 0; i < parts.length; i++) {
    var p = parts[i];
    if (p === '' || p === '.') continue;
    if (p === '..') {
      if (out.length > 0 && out[out.length - 1] !== '..') out.pop();
      else out.push('..');
    } else {
      out.push(p);
    }
  }
  return out;
}
exports.sep = '/';
exports.join = function() {
  var parts = [];
  for (var i = 0; i < arguments.length; i++) {
    var a = arguments[i];
    if (a !== '' && a !== undefined) parts.push(String(a));
  }
  var joined = parts.join('/');
  var abs = joined.charAt(0) === '/';
  var norm = normalizeParts(joined.split('/')).join('/');
  if (abs) return '/' + norm;
  if (norm === '') return '.';
  return norm;
};
exports.resolve = function() {
  var resolved = '';
  for (var i = 0; i < arguments.length; i++) {
    var p = String(arguments[i]);
    if (p.charAt(0) === '/') resolved = p;
    else if (resolved === '') resolved = '/' + p;
    else resolved = resolved + '/' + p;
  }
  return '/' + normalizeParts(resolved.split('/')).join('/');
};
exports.dirname = function(p) {
  p = String(p);
  var i = p.lastIndexOf('/');
  if (i < 0) return '.';
  if (i === 0) return '/';
  return p.slice(0, i);
};
exports.basename = function(p, ext) {
  p = String(p);
  var i = p.lastIndexOf('/');
  var base = i < 0 ? p : p.slice(i + 1);
  if (ext && base.endsWith(ext)) base = base.slice(0, base.length - ext.length);
  return base;
};
exports.extname = function(p) {
  p = String(p);
  var base = exports.basename(p);
  var i = base.lastIndexOf('.');
  if (i <= 0) return '';
  return base.slice(i);
};
exports.isAbsolute = function(p) { return String(p).charAt(0) === '/'; };
exports.relative = function(from, to) { return String(to); };
exports.normalize = function(p) {
  p = String(p);
  var abs = p.charAt(0) === '/';
  var norm = normalizeParts(p.split('/')).join('/');
  if (abs) return '/' + norm;
  return norm === '' ? '.' : norm;
};
`,

	"node:assert": `
function AssertionError(message) {
  var e = new Error(message);
  e.name = 'AssertionError';
  return e;
}
function assert(cond, message) {
  if (!cond) throw AssertionError(message || 'assertion failed');
}
assert.ok = assert;
assert.equal = function(a, b, message) {
  if (a != b) throw AssertionError(message || (a + ' != ' + b));
};
assert.strictEqual = function(a, b, message) {
  if (a !== b) throw AssertionError(message || (a + ' !== ' + b));
};
assert.notEqual = function(a, b, message) {
  if (a == b) throw AssertionError(message || (a + ' == ' + b));
};
assert.deepEqual = function(a, b, message) {
  if (JSON.stringify(a) !== JSON.stringify(b)) {
    throw AssertionError(message || 'not deeply equal');
  }
};
assert.throws = function(fn, message) {
  var threw = false;
  try { fn(); } catch (e) { threw = true; }
  if (!threw) throw AssertionError(message || 'missing expected exception');
};
assert.fail = function(message) { throw AssertionError(message || 'failed'); };
module.exports = assert;
`,

	"node:querystring": `
exports.parse = function(qs) {
  var out = {};
  if (!qs) return out;
  var pairs = String(qs).split('&');
  for (var i = 0; i < pairs.length; i++) {
    var kv = pairs[i].split('=');
    if (kv[0] !== '') out[kv[0]] = kv.length > 1 ? kv[1] : '';
  }
  return out;
};
exports.stringify = function(obj) {
  var parts = [];
  var keys = Object.keys(obj);
  for (var i = 0; i < keys.length; i++) {
    parts.push(keys[i] + '=' + String(obj[keys[i]]));
  }
  return parts.join('&');
};
`,

	"node:url": `
exports.parse = function(u) {
  u = String(u);
  var out = { href: u, protocol: null, host: null, pathname: null, query: null };
  var i = u.indexOf('://');
  var rest = u;
  if (i >= 0) {
    out.protocol = u.slice(0, i + 1);
    rest = u.slice(i + 3);
  }
  var q = rest.indexOf('?');
  if (q >= 0) {
    out.query = rest.slice(q + 1);
    rest = rest.slice(0, q);
  }
  var s = rest.indexOf('/');
  if (s >= 0) {
    out.host = rest.slice(0, s);
    out.pathname = rest.slice(s);
  } else {
    out.host = rest;
    out.pathname = '/';
  }
  return out;
};
exports.format = function(o) {
  return (o.protocol ? o.protocol + '//' : '') + (o.host || '') + (o.pathname || '') + (o.query ? '?' + o.query : '');
};
`,

	"node:stream": `
var EventEmitter = require('events');
var util = require('util');
function Stream() {
  EventEmitter.call(this);
}
util.inherits(Stream, EventEmitter);
Stream.prototype.pipe = function(dest) {
  var source = this;
  source.on('data', function(chunk) {
    if (dest.write) dest.write(chunk);
  });
  source.on('end', function() {
    if (dest.end) dest.end();
  });
  return dest;
};
function Readable() { Stream.call(this); }
util.inherits(Readable, Stream);
Readable.prototype.read = function() { return null; };
function Writable() { Stream.call(this); }
util.inherits(Writable, Stream);
Writable.prototype.write = function(chunk) { this.emit('data', chunk); return true; };
Writable.prototype.end = function() { this.emit('finish'); this.emit('end'); };
module.exports = Stream;
module.exports.Stream = Stream;
module.exports.Readable = Readable;
module.exports.Writable = Writable;
`,

	"node:buffer": `
function Buffer(data) {
  this.data = data === undefined ? '' : String(data);
  this.length = this.data.length;
}
Buffer.from = function(data) { return new Buffer(data); };
Buffer.alloc = function(n) { return new Buffer(''); };
Buffer.isBuffer = function(b) { return b instanceof Buffer; };
Buffer.concat = function(list) {
  var s = '';
  for (var i = 0; i < list.length; i++) s = s + list[i].toString();
  return new Buffer(s);
};
Buffer.prototype.toString = function() { return this.data; };
Buffer.prototype.slice = function(a, b) { return new Buffer(this.data.slice(a, b)); };
module.exports = { Buffer: Buffer };
module.exports.Buffer = Buffer;
`,

	// --- external-world modules: minimal stubs for concrete execution; the
	// sandbox replaces them with mocks during approximate interpretation.

	"node:fs": `
exports.readFileSync = function(path, opts) { return ''; };
exports.writeFileSync = function(path, data) { return undefined; };
exports.existsSync = function(path) { return false; };
exports.readFile = function(path, opts, cb) {
  var callback = typeof opts === 'function' ? opts : cb;
  if (callback) callback(null, '');
};
exports.writeFile = function(path, data, cb) { if (cb) cb(null); };
exports.readdirSync = function(path) { return []; };
exports.statSync = function(path) {
  return { isDirectory: function() { return false; }, isFile: function() { return true; } };
};
exports.stat = function(path, cb) { if (cb) cb(null, exports.statSync(path)); };
exports.mkdirSync = function(path) { return undefined; };
exports.unlinkSync = function(path) { return undefined; };
exports.createReadStream = function(path) {
  var Stream = require('stream');
  return new Stream.Readable();
};
exports.createWriteStream = function(path) {
  var Stream = require('stream');
  return new Stream.Writable();
};
`,

	"node:net": `
var EventEmitter = require('events');
var util = require('util');
function Socket() { EventEmitter.call(this); }
util.inherits(Socket, EventEmitter);
Socket.prototype.write = function(data) { return true; };
Socket.prototype.end = function() { this.emit('close'); };
function Server(handler) {
  EventEmitter.call(this);
  if (handler) this.on('connection', handler);
}
util.inherits(Server, EventEmitter);
Server.prototype.listen = function(port, cb) {
  var callback = typeof port === 'function' ? port : cb;
  if (callback) callback();
  this.emit('listening');
  return this;
};
Server.prototype.close = function(cb) {
  if (cb) cb();
  this.emit('close');
  return this;
};
Server.prototype.address = function() { return { port: 0 }; };
exports.Socket = Socket;
exports.Server = Server;
exports.createServer = function(handler) { return new Server(handler); };
exports.connect = function() { return new Socket(); };
exports.createConnection = exports.connect;
`,

	"node:http": `
var EventEmitter = require('events');
var util = require('util');
function IncomingMessage() {
  EventEmitter.call(this);
  this.url = '/';
  this.method = 'GET';
  this.headers = {};
}
util.inherits(IncomingMessage, EventEmitter);
function ServerResponse() {
  EventEmitter.call(this);
  this.statusCode = 200;
  this.headers = {};
}
util.inherits(ServerResponse, EventEmitter);
ServerResponse.prototype.setHeader = function(name, v) { this.headers[name] = v; };
ServerResponse.prototype.getHeader = function(name) { return this.headers[name]; };
ServerResponse.prototype.writeHead = function(code, headers) {
  this.statusCode = code;
  return this;
};
ServerResponse.prototype.write = function(data) { return true; };
ServerResponse.prototype.end = function(data) { this.emit('finish'); };
function Server(handler) {
  EventEmitter.call(this);
  if (handler) this.on('request', handler);
}
util.inherits(Server, EventEmitter);
Server.prototype.listen = function(port, cb) {
  var callback = typeof port === 'function' ? port : cb;
  if (callback) callback();
  this.emit('listening');
  return this;
};
Server.prototype.close = function(cb) {
  if (cb) cb();
  this.emit('close');
  return this;
};
Server.prototype.address = function() { return { port: 0 }; };
exports.Server = Server;
exports.IncomingMessage = IncomingMessage;
exports.ServerResponse = ServerResponse;
exports.createServer = function(handler) { return new Server(handler); };
exports.request = function(opts, cb) {
  var res = new IncomingMessage();
  if (cb) cb(res);
  var req = new EventEmitter();
  req.end = function() {};
  req.write = function() {};
  return req;
};
exports.get = exports.request;
exports.METHODS = ['GET', 'POST', 'PUT', 'DELETE', 'PATCH', 'HEAD', 'OPTIONS'];
`,

	"node:https": `
module.exports = require('http');
`,

	"node:crypto": `
var state = 12345;
exports.randomBytes = function(n) {
  var Buffer = require('buffer').Buffer;
  var s = '';
  for (var i = 0; i < n; i++) {
    state = (state * 1103515245 + 12345) % 2147483648;
    s = s + String.fromCharCode(state % 256);
  }
  return Buffer.from(s);
};
exports.createHash = function(alg) {
  var data = '';
  return {
    update: function(d) { data = data + String(d); return this; },
    digest: function(enc) {
      var h = 0;
      for (var i = 0; i < data.length; i++) {
        h = (h * 31 + data.charCodeAt(i)) % 4294967296;
      }
      return h.toString(16);
    }
  };
};
`,

	"node:os": `
exports.platform = function() { return 'linux'; };
exports.hostname = function() { return 'localhost'; };
exports.tmpdir = function() { return '/tmp'; };
exports.homedir = function() { return '/home/user'; };
exports.EOL = '\n';
exports.cpus = function() { return []; };
`,

	"node:child_process": `
exports.exec = function(cmd, opts, cb) {
  var callback = typeof opts === 'function' ? opts : cb;
  if (callback) callback(null, '', '');
  var EventEmitter = require('events');
  return new EventEmitter();
};
exports.execSync = function(cmd) { return ''; };
exports.spawn = function(cmd, args) {
  var EventEmitter = require('events');
  var p = new EventEmitter();
  p.stdout = new EventEmitter();
  p.stderr = new EventEmitter();
  p.kill = function() {};
  return p;
};
exports.fork = exports.spawn;
`,

	"node:zlib": `
exports.gzipSync = function(data) { return data; };
exports.gunzipSync = function(data) { return data; };
exports.deflateSync = function(data) { return data; };
exports.inflateSync = function(data) { return data; };
exports.createGzip = function() {
  var Stream = require('stream');
  return new Stream.Writable();
};
`,

	"node:dns": `
exports.lookup = function(host, cb) { if (cb) cb(null, '127.0.0.1', 4); };
exports.resolve = function(host, cb) { if (cb) cb(null, ['127.0.0.1']); };
`,

	"node:readline": `
var EventEmitter = require('events');
exports.createInterface = function(opts) {
  var rl = new EventEmitter();
  rl.question = function(q, cb) { if (cb) cb(''); };
  rl.close = function() { rl.emit('close'); };
  return rl;
};
`,

	"node:tls":     "module.exports = require('net');\n",
	"node:dgram":   "exports.createSocket = function() { var E = require('events'); return new E(); };\n",
	"node:cluster": "exports.isMaster = true;\nexports.isPrimary = true;\nexports.fork = function() { var E = require('events'); return new E(); };\n",
}

// IsExternalModule reports whether name is an external-world Node module
// (sandbox-mocked during approximate interpretation).
func IsExternalModule(name string) bool { return externalModules[name] }
