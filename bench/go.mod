module github.com/sgxorch/sgxorch/bench

go 1.24

require github.com/sgxorch/sgxorch v0.0.0

replace github.com/sgxorch/sgxorch => ../
