module cyberhd/bench

go 1.24

require cyberhd v0.0.0

replace cyberhd => ../
