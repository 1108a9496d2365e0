module utlb/bench

go 1.22

require utlb v0.0.0

replace utlb => ../
