go test fuzz v1
string("var r = require(\"./m1\");\nvar t = { emit: function(x) { return x + 7; } };\nvar k = \"em\" + \"it\";\nres = t[k](8);\n")
