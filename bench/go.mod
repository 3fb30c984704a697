module datacutter/bench

go 1.22

require datacutter v0.0.0

replace datacutter => ../
