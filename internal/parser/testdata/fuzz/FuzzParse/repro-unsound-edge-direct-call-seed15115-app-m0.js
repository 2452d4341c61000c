go test fuzz v1
string("var fn = function(x) { return x; };\nfunction f1() {\n  return function(t) { return t; };\n}\ntry {\nres = eval(\"f1();\");\n} catch (e) { res = e; }\nres = res(fn);")
