module frangipani/benchmark

go 1.24

require frangipani v0.0.0

replace frangipani => ../
