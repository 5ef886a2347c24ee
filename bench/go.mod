module hdd/bench

go 1.22

require hdd v0.0.0

replace hdd => ../
