module dbtouch/bench

go 1.24

require dbtouch v0.0.0

replace dbtouch => ../
