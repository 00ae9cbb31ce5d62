"""Table-format stdout of one argv per leaf command of ``bnkit.cli``.

JSON output sorts its keys, so only the table format shows the order in
which a command echoes its inputs.  These strings were recorded before the
command table replaced the hand-written dispatch, and must not change,
except where a command's flags change: ``splitting predicates`` lost
``-r``, so its echo no longer ends in ``r=``.
"""

TABLE_GOLDENS = {
    'rho -g 8 -r 2 -d 7': (
        'rho  g=8 r=2 d=7\n'
        '  rho = -1\n'
    ),
    'rho-k -g 12 -r 2 -d 7 -k 3': (
        'rho-k  g=12 r=2 d=7 k=3\n'
        '  rho_k = 1\n'
    ),
    'count -g 4 -r 1 -d 3': (
        'count  g=4 r=1 d=3\n'
        '  count = 2\n'
    ),
    'chi -g 2 -r 3 -d 5': (
        'chi  g=2 r=3 d=5\n'
        '  chi = 17\n'
    ),
    'hilbert -g 2 -r 3 -d 5 -k 2': (
        'hilbert  g=2 r=3 d=5 k=2\n'
        '  value = 9\n'
    ),
    'smrc -g 13 -r 5 -d 16 -k 2': (
        'smrc  g=13 r=5 d=16 k=2\n'
        '  expected_dim = -1\n'
    ),
    'interp -g 2 -r 3 -d 5': (
        'interp  g=2 r=3 d=5\n'
        '  count = 9\n'
        '  formula_value = 10\n'
        '  is_exception = True\n'
    ),
    'splitting rd -g 5 -e=-2,-2,1': (
        'splitting rd  g=5 e=-2,-2,1\n'
        '  d = 4\n'
        '  r = 1\n'
    ),
    'splitting rho -g 5 -e=-3,-1,1': (
        'splitting rho  g=5 e=-3,-1,1\n'
        '  rho_splitting = 0\n'
    ),
    'splitting maximal -g 8 -r 2 -d 7 -k 4': (
        'splitting maximal  g=8 r=2 d=7 k=4\n'
        '  types = -4,0,0,0;-3,-2,0,1;-2,-2,-2,2\n'
    ),
    'splitting predicates -e=-2,-2,1': (
        'splitting predicates  e=-2,-2,1\n'
        '  basepoint_free = False\n'
        '  very_ample_sufficient = False\n'
    ),
    'splitting majorizes --outer=-3,-1,1 --inner=-2,-2,1': (
        'splitting majorizes  outer=-3,-1,1 inner=-2,-2,1\n'
        '  majorizes = False\n'
        '  reason = prefix-exceeds\n'
    ),
    'loci dual -g 12 -r 1 -d 3': (
        'loci dual  g=12 r=1 d=3\n'
        '  d = 19\n'
        '  g = 12\n'
        '  r = 9\n'
    ),
    'loci maximal -g 8 -r 1 -d 4': (
        'loci maximal  g=8 r=1 d=4\n'
        '  is_expected_maximal = True\n'
        '  is_maximal_exception = True\n'
        '  rho = -2\n'
    ),
    'loci enumerate -g 8': (
        'loci enumerate  g=8\n'
        '  d=4  exception=True  expected_maximal=True  g=8  r=1  rho=-2\n'
        '  d=7  exception=False  expected_maximal=True  g=8  r=2  rho=-1\n'
    ),
    'kfill --core 4,2,1,1 -k 3 -g 5 --witnesses': (
        'kfill  core=4,2,1,1 k=3 g=5\n'
        '  count = 2\n'
        '  witnesses = 0,1,2,1,0;0,2,1,2,0\n'
    ),
    'syt --rows 4 --cols 6': (
        'syt  rows=4 cols=6\n'
        '  count = 140229804\n'
    ),
    'chain h0 --aspects 0,+4;2,2;0,4 --dist 3,0,1': (
        'chain h0  aspects=0,4;2,2;0,4 window=4 dist=3,0,1\n'
        '  h0 = 3\n'
    ),
    'chain min-h0 --aspects 0,4;gen;+0,04 --window 6': (
        'chain min-h0  aspects=0,4;gen;0,4 window=6\n'
        '  min_h0 = 2\n'
        '  witness = 1,1,2\n'
    ),
    'chain tables --aspects 0,4;2,2;0,4 -r 2': (
        'chain tables  aspects=0,4;2,2;0,4 window=4 r=2\n'
        '  a = [0, 1, 2];[0, 2, 3];[1, 2, 4]\n'
        '  b = [1, 2, 4];[0, 2, 3];[0, 1, 2]\n'
    ),
    'chain star --aspects 0,4;2,2;0,4 -r 2 --window 5': (
        'chain star  aspects=0,4;2,2;0,4 window=5 r=2\n'
        '  lower_bound = 1\n'
        '  pairs = [1, 0];[2, 1];[3, 2]\n'
        "  per_n = {'0': 1, '1': 1, '2': 1}\n"
    ),
    'chain search -g 3 -r 2 -d 4 --witnesses': (
        'chain search  g=3 r=2 d=4 window=4\n'
        '  count_exact = 1\n'
        '  count_with_generic = 0\n'
        "  witnesses = {'aspects': '0,4;2,2;0,4', 'min_h0': 3}\n"
    ),
    'lattice min-degree -r 3 -g 4': (
        'lattice min-degree  r=3 g=4\n'
        '  min_degree = 6\n'
    ),
    'lattice reachable -r 3 --g-max 2 --d-max 5': (
        'lattice reachable  r=3 g_max=2 d_max=5\n'
        '  d=3  g=0\n'
        '  d=4  g=0\n'
        '  d=4  g=1\n'
        '  d=5  g=0\n'
        '  d=5  g=1\n'
        '  d=5  g=2\n'
    ),
    'lattice certificate -r 3 -d 5 -g 2': (
        'lattice certificate  r=3 d=5 g=2\n'
        '  chi = 17\n'
        '  moves = BB\n'
        "  steps = {'move': 'B', 'bundle': [-1, -1, 0], 'h1': 0};"
        "{'move': 'B', 'bundle': [-1, -1, 0], 'h1': 0}\n"
    ),
    'nb project -d 3': (
        'nb project  d=3\n'
        '  quot = 5\n'
        '  sub = 5\n'
        '  total_degree = 10\n'
        '  total_rank = 2\n'
    ),
    'nb odd-cert -d 5': (
        'nb odd-cert  d=5\n'
        '  balanced = True\n'
        '  d = 5\n'
        '  peels = 1\n'
        '  quot = 8\n'
        '  sub = 8\n'
        '  total = 18\n'
    ),
    'nb modify --degrees 2,1,1 --summand 0 --sign - --points 1': (
        'nb modify  degrees=2,1,1 summand=0 sign=- points=1\n'
        '  degrees = 2;0;0\n'
    ),
}
