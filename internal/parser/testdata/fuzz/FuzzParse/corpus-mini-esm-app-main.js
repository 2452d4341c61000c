go test fuzz v1
string("import toolkit, {fmtDate, parseNum} from 'kitjs';\nimport * as kit from 'kitjs';\nvar stamped = fmtDate(12345);\nvar n = parseNum(\"42\");\nvar viaDefault = toolkit.version();\nvar viaNs = kit.fmtDate(999);\nmodule.exports = { stamped: stamped, n: n, viaDefault: viaDefault, viaNs: viaNs };\n")
