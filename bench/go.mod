module quickstore/bench

go 1.22

require quickstore v0.0.0

replace quickstore => ../
