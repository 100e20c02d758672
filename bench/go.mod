module ibcbench/bench

go 1.22

require ibcbench v0.0.0

replace ibcbench => ../
