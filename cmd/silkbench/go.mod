module silkmoth/cmd/silkbench

go 1.22

require silkmoth v0.0.0

replace silkmoth => ../..
