module tcoram/benchmark

go 1.23

require tcoram v0.0.0

replace tcoram => ../
