module gonoc/benchmark

go 1.22

require gonoc v0.0.0

replace gonoc => ../
