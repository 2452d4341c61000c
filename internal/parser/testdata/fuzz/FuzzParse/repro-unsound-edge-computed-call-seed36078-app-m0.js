go test fuzz v1
string("var t1 = {\n  calc: function(x) { return x + 1; }\n}\ntry {\n} catch (e) { res = e; }\nexports.t1 = t1;")
