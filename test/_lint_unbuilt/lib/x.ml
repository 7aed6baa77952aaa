let x = 0
