-- Filters, ranges (index-eligible), constant folding.
SELECT VALUE u.name FROM GleambookUsers u WHERE u.id < 5;

SELECT VALUE u.alias FROM GleambookUsers u WHERE u.id >= 2 + 3 AND u.id <= 10 AND 1 = 1;

SELECT VALUE u.name FROM GleambookUsers u
    WHERE u.userSince >= datetime("2012-01-01T00:00:00") AND u.userSince <= datetime("2014-12-31T23:59:59");

-- 2-way joins: straight, commuted, nested conjunction, constant eq.
SELECT u.name AS n, m.messageId AS mid FROM GleambookUsers u, GleambookMessages m
    WHERE m.authorId = u.id AND u.id < 6;

SELECT u.name AS n, m.messageId AS mid FROM GleambookUsers u, GleambookMessages m
    WHERE u.id = m.authorId AND m.messageId < 40;

SELECT u.alias AS a, m.messageId AS mid FROM GleambookUsers u, GleambookMessages m
    WHERE (m.authorId = u.id AND u.id < 10) AND m.messageId > 20;

SELECT u.name AS n, m.messageId AS mid FROM GleambookUsers u, GleambookMessages m
    WHERE u.id = 3 AND m.authorId = u.id;

-- 3-way join cluster (greedy ordering on, naive nested loops off).
SELECT u.name AS n, m1.messageId AS a, m2.messageId AS b
    FROM GleambookMessages m1, GleambookMessages m2, GleambookUsers u
    WHERE m1.authorId = u.id AND m2.authorId = u.id
    AND m1.messageId < 30 AND m2.messageId < 30 AND m1.messageId < m2.messageId;

-- Grouping, aggregates, distinct, order/limit, unnest, subquery.
SELECT u.name AS name, COUNT(m) AS cnt
    FROM GleambookUsers u JOIN GleambookMessages m ON m.authorId = u.id
    GROUP BY u.name AS name;

SELECT DISTINCT VALUE m.authorId FROM GleambookMessages m WHERE m.messageId < 50;

SELECT VALUE u.name FROM GleambookUsers u ORDER BY u.id LIMIT 7 OFFSET 2;

SELECT VALUE f FROM GleambookUsers u UNNEST u.friendIds f WHERE u.id < 4;

SELECT VALUE coll_count((SELECT VALUE m FROM GleambookMessages m WHERE m.authorId = u.id))
    FROM GleambookUsers u WHERE u.id < 5;

SELECT VALUE u.name FROM GleambookUsers u
    WHERE SOME f IN u.friendIds SATISFIES f = 3;

-- The primary index as an access path: equality (either operand
-- order, int and double constants, absent keys), ranges, an extra
-- conjunct on a secondary-indexed field, a join input, LIMIT, and
-- a composite key (full, prefix, prefix + range, second field only).
SELECT VALUE u.name FROM GleambookUsers u WHERE 11 = u.id;

SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = 12.0;

SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = 12.5;

SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = 1000;

SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = -1;

SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = "7";

SELECT VALUE u.name FROM GleambookUsers u WHERE 25 <= u.id;

SELECT VALUE u.name FROM GleambookUsers u WHERE u.id > 3.5 AND u.id <= 9;

SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = 4 AND u.id > 7;

SELECT VALUE u.name FROM GleambookUsers u
    WHERE u.userSince >= datetime("2012-01-01T00:00:00") AND u.id = 10;

SELECT VALUE u.name FROM GleambookUsers u
    WHERE u.userSince >= datetime("2016-01-01T00:00:00") AND u.id = 10;

SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.messageId >= 80 AND m.authorId = 5;

SELECT VALUE u.name FROM GleambookUsers u WHERE u.id >= 20 ORDER BY u.id LIMIT 3;

SELECT VALUE c.place FROM Checkins c WHERE c.day = 2 AND c.uid = 3;

SELECT VALUE c.place FROM Checkins c WHERE c.uid = 3.0 AND c.day = 2.0;

SELECT VALUE c.place FROM Checkins c WHERE c.uid = 3 AND c.day = 9;

SELECT VALUE c.place FROM Checkins c WHERE c.uid = 3;

SELECT VALUE c.place FROM Checkins c WHERE c.uid = 3 AND c.day > 0 AND c.day <= 2;

SELECT VALUE c.place FROM Checkins c WHERE c.uid >= 8;

SELECT VALUE c.place FROM Checkins c WHERE c.uid < 2 AND c.day = 1;

SELECT VALUE c.place FROM Checkins c WHERE c.day = 1;

-- ORDER BY … LIMIT as a bounded sort: tie-heavy keys (over plain
-- scans, whose arrival order every engine shares), LIMIT 0, LIMIT
-- and OFFSET beyond the input, a sort above a group-by that also
-- selects the aggregate it orders by.
SELECT VALUE m.messageId FROM GleambookMessages m ORDER BY m.authorId % 3 LIMIT 10;

SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.messageId % 5 != 1
    ORDER BY m.authorId % 3 DESC, m.messageId % 2 LIMIT 7 OFFSET 5;

SELECT VALUE m.messageId FROM GleambookMessages m ORDER BY 1 LIMIT 4;

SELECT VALUE u.name FROM GleambookUsers u ORDER BY u.alias LIMIT 0;

SELECT VALUE u.name FROM GleambookUsers u ORDER BY u.userSince DESC, u.id LIMIT 1000;

SELECT VALUE u.name FROM GleambookUsers u ORDER BY u.userSince, u.id DESC LIMIT 5 OFFSET 28;

SELECT VALUE u.name FROM GleambookUsers u ORDER BY u.id OFFSET 40;

SELECT u.alias AS alias, COUNT(*) AS cnt FROM GleambookUsers u, GleambookMessages m
    WHERE m.authorId = u.id AND m.messageId % 4 < 3 GROUP BY u.alias ORDER BY cnt DESC, alias ASC LIMIT 5;

SELECT g AS g, COUNT(*) AS cnt, COUNT(*) + SUM(m.messageId) AS s FROM GleambookMessages m
    GROUP BY m.authorId % 4 AS g HAVING COUNT(*) > 1 ORDER BY COUNT(*) DESC, g LIMIT 3;

-- Leaves decoding only the fields read: optional and undeclared
-- fields absent from some records, a record used both through a
-- field and whole, nested and indexed access, no field at all, a
-- secondary-index fetch, a join projecting each side differently.
SELECT m.messageId AS id, m.topic AS topic, m.senderLocation AS loc, m.inResponseTo AS re
    FROM GleambookMessages m WHERE m.messageId < 12;

SELECT VALUE m.topic FROM GleambookMessages m ORDER BY m.topic DESC, m.messageId LIMIT 8;

SELECT VALUE m.nope FROM GleambookMessages m WHERE m.messageId < 3;

SELECT m.messageId AS id, m AS rec FROM GleambookMessages m WHERE m.authorId = 4;

SELECT VALUE m FROM GleambookMessages m WHERE m.topic = "topic3";

SELECT * FROM GleambookMessages m WHERE m.messageId = 9;

SELECT VALUE u.employment[0].organizationName FROM GleambookUsers u WHERE u.id < 4;

SELECT VALUE coll_count(u.friendIds) FROM GleambookUsers u WHERE u.id < 4;

SELECT VALUE COUNT(*) FROM GleambookMessages m;

SELECT VALUE u.alias FROM GleambookUsers u WHERE u.userSince >= datetime("2015-01-01T00:00:00");

SELECT u.name AS n, m.message AS msg FROM GleambookUsers u, GleambookMessages m
    WHERE m.authorId = u.id AND m.topic = "topic0";

SELECT VALUE x.alias FROM GleambookUsers u LET x = u WHERE u.id < 3;

-- ORDER BY with no LIMIT keeps its projection below the sort (it still
-- runs on every partition): a projection that is work per row — a
-- function, a correlated subquery.
SELECT m.messageId AS id, upper(m.message) AS msg,
    coll_count((SELECT VALUE u.id FROM GleambookUsers u WHERE u.id <= m.authorId % 4)) AS n
    FROM GleambookMessages m ORDER BY m.authorId % 3 DESC, m.messageId;

SELECT VALUE string_length(u.name) + u.id FROM GleambookUsers u ORDER BY u.alias DESC;

-- Semantics every path must share: % with a double operand is the
-- floating-point remainder, and LIKE's _ is one character, not one byte.
SELECT VALUE m.messageId + 7.5 % 2 FROM GleambookMessages m WHERE m.messageId % 2.5 = 0 AND m.messageId < 20;

SELECT VALUE m.messageId FROM GleambookMessages m
    WHERE (m.message || " é") LIKE "message number _ about topic_ _" AND (m.message || "日本") LIKE "%topic3__";

-- Filters the leaf applies itself: a field two thirds of the rows lack and
-- the unknown-ness of it, a field both filtered by and projected, a conjunct
-- that would fail on the rows the one before it rejects, a nested read, a
-- count that reads only the filter's field, the residual of a secondary
-- index search, and a record read whole.
SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.topic > "topic2";

SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.topic IS MISSING AND m.messageId < 20;

SELECT m.messageId AS id, m.topic IS NULL AS n, m.topic IS NOT UNKNOWN AS k FROM GleambookMessages m
    WHERE m.topic IS UNKNOWN OR m.topic > "topic4";

SELECT VALUE m.message FROM GleambookMessages m WHERE m.message LIKE "%topic5";

SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.messageId < 0 AND m.message / 2 = 1;

SELECT VALUE u.alias FROM GleambookUsers u WHERE u.employment[0].organizationName = "Org2";

SELECT VALUE COUNT(*) FROM GleambookMessages m WHERE m.authorId % 3 = 1;

SELECT VALUE u.alias FROM GleambookUsers u
    WHERE u.userSince >= datetime("2013-01-01T00:00:00") AND u.id % 2 = 1;

SELECT VALUE m FROM GleambookMessages m WHERE m.authorId % 7 = 0 AND m.senderLocation IS NOT MISSING;

-- A project that keeps none of its input's columns still narrows the tuple:
-- a join both sides of which are read for their keys only, under an unnest,
-- and a leaf whose one column only its filter reads, beside a join.
SELECT VALUE x FROM GleambookMessages m, GleambookUsers u, [1, 2] x WHERE m.authorId = u.id;

SELECT DISTINCT VALUE m.authorId FROM GleambookMessages m, GleambookUsers u, GleambookUsers v
    WHERE m.authorId = u.id AND v.id < 2;

-- A correlated UNION ALL inside EXISTS reads the outer column in each block,
-- so column pruning must keep it.
SELECT VALUE u.id FROM GleambookUsers u WHERE EXISTS (SELECT VALUE 1 FROM [1] x WHERE u.id < 3 UNION ALL SELECT VALUE 1 FROM [1] y WHERE u.id > 27);

-- A GROUP BY key read inside a quantifier's IN is replaced by its key
-- variable like any other occurrence.
SELECT (SOME v IN [u.id] SATISFIES v > 1) AS s, COUNT(*) AS n FROM GleambookUsers u WHERE u.id < 3 GROUP BY u.id;

-- An ORDER BY item reads a SELECT alias inside a nested block, at the top
-- level and one block down; a block that binds the alias's name, or the
-- name the alias's expression reads, does not capture it.
SELECT u.id AS uid FROM GleambookUsers u ORDER BY (SELECT VALUE uid FROM [1] x)[0];

SELECT VALUE (SELECT u.id AS uid FROM GleambookUsers u ORDER BY (SELECT VALUE uid FROM [1] x)[0]);

SELECT u.id AS uid FROM GleambookUsers u ORDER BY (SELECT VALUE uid FROM [7] uid)[0], (SELECT VALUE -uid FROM [1] u)[0];

-- In a grouped block, the alias of an aggregate and of a group key
-- expression reads the grouped value inside a nested ORDER BY block.
SELECT u.id % 3 AS k, COUNT(*) AS n FROM GleambookUsers u GROUP BY u.id % 3 AS g ORDER BY (SELECT VALUE [-n, k] FROM [1] u)[0];

-- Above SELECT DISTINCT, ORDER BY reads what SELECT * projects.
SELECT DISTINCT * FROM GleambookUsers u WHERE u.id < 5 ORDER BY u.id DESC;

-- A group key's expression read inside a quantifier's body, a nested block,
-- an EXISTS in SELECT and in HAVING, and a block nested in ORDER BY is the
-- grouped value: the binder tells that u from any inner u.
SELECT g, (SOME x IN [0, 2] SATISFIES x = u.id % 3) AS s FROM GleambookUsers u WHERE u.id < 6 GROUP BY u.id % 3 AS g;

SELECT g, (SELECT VALUE u.id % 3 + x FROM [10, 20] x) AS s FROM GleambookUsers u WHERE u.id < 6 GROUP BY u.id % 3 AS g;

SELECT g, EXISTS (SELECT VALUE x FROM [1, 2] x WHERE x = u.id % 3) AS e FROM GleambookUsers u WHERE u.id < 6 GROUP BY u.id % 3 AS g;

SELECT g, COUNT(*) AS n FROM GleambookUsers u WHERE u.id < 6 GROUP BY u.id % 3 AS g HAVING EXISTS (SELECT VALUE x FROM [1, 2] x WHERE x = u.id % 3);

SELECT g FROM GleambookUsers u WHERE u.id < 6 GROUP BY u.id % 3 AS g ORDER BY (SELECT VALUE -(u.id % 3) FROM [1] x)[0];

-- Above SELECT DISTINCT, a block nested in ORDER BY reads an item's
-- expression as the result's field, as it reads the item's alias.
SELECT DISTINCT u.id AS a FROM GleambookUsers u WHERE u.id < 3 ORDER BY (SELECT VALUE -u.id FROM [1] x)[0];

-- A GROUP AS element holds the row's FROM, UNNEST and LET variables and
-- never a WITH item, at the top level and one block down.
WITH k AS 1 SELECT VALUE g FROM GleambookUsers u UNNEST u.friendIds f LET i = u.id * 10 WHERE u.id < 2 GROUP BY u.id AS a GROUP AS g ORDER BY a;

SELECT VALUE (WITH k AS 1 SELECT VALUE g FROM GleambookUsers u UNNEST u.friendIds f LET i = u.id * 10 WHERE u.id < 2 GROUP BY u.id AS a GROUP AS g ORDER BY a);

-- A GROUP AS element holds no LET variable whose value is missing, at the
-- top level and one block down: an object never holds a missing field.
SELECT VALUE object_names(A[0]) FROM GleambookMessages m LET g = m.nosuch WHERE m.messageId < 2 GROUP BY g GROUP AS A;

SELECT VALUE (SELECT VALUE object_names(A[0]) FROM GleambookMessages m LET g = m.nosuch WHERE m.messageId < 2 GROUP BY g GROUP AS A) FROM [1] x;
