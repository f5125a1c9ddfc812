module cool/bench

go 1.22

require cool v0.0.0

replace cool => ../
