go test fuzz v1
string("function f8() {\n  missing();\n  for (var i = 0; i < 4; i++) { for (var i = 0; i < 1; i++) { } }\n}\ntry { f8(); } catch (e) {}")
