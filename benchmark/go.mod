module tuffy/benchmark

go 1.24

require tuffy v0.0.0

replace tuffy => ../
