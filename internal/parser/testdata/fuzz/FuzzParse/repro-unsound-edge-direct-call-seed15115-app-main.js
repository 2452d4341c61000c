go test fuzz v1
string("var r = require(\"./m0\");\n")
