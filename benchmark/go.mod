module logsynergy/benchmark

go 1.22

require logsynergy v0.0.0

replace logsynergy => ../
